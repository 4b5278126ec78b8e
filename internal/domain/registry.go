package domain

import (
	"fmt"
	"sync"
)

// Registry routes domain calls to registered domains. It is the mediator's
// view of the federation; the CIM and the netsim wrappers are themselves
// registered as domains or wrap entries here.
type Registry struct {
	mu      sync.RWMutex
	domains map[string]Domain
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{domains: make(map[string]Domain)}
}

// Register adds a domain. Registering a name twice replaces the previous
// entry (used to interpose wrappers such as the CIM or the netsim).
func (r *Registry) Register(d Domain) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.domains[d.Name()] = d
}

// Get returns the domain registered under name.
func (r *Registry) Get(name string) (Domain, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.domains[name]
	return d, ok
}

// Names returns the registered domain names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.domains))
	for n := range r.domains {
		out = append(out, n)
	}
	return out
}

// Call routes a ground call to its domain. A cancelled or past-deadline
// ctx aborts before the call is issued.
func (r *Registry) Call(ctx *Ctx, c Call) (Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d, ok := r.Get(c.Domain)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDomain, c.Domain)
	}
	return d.Call(ctx, c.Function, c.Args)
}

// listFunctions resolves a domain's function listing, preferring the
// fallible FunctionsErr when the domain provides it.
func listFunctions(d Domain) ([]FuncSpec, error) {
	if fl, ok := d.(FunctionLister); ok {
		return fl.FunctionsErr()
	}
	return d.Functions(), nil
}

// HasFunction reports whether domain dom exports function fn with the given
// arity (arity < 0 matches any). An unobtainable listing (unreachable
// remote source) reports false with the listing's error: the function is
// then unconfirmed rather than absent.
func (r *Registry) HasFunction(dom, fn string, arity int) (bool, error) {
	d, ok := r.Get(dom)
	if !ok {
		return false, nil
	}
	specs, err := listFunctions(d)
	if err != nil {
		return false, err
	}
	for _, spec := range specs {
		if spec.Name == fn && (arity < 0 || spec.Arity == arity) {
			return true, nil
		}
	}
	return false, nil
}

// CheckCall verifies a call resolves to a known domain function. When the
// domain's listing cannot be obtained the error surfaces as-is (wrapping
// ErrUnavailable for remote sources) rather than the misleading — and
// non-retryable — ErrUnknownFunction.
func (r *Registry) CheckCall(c Call) error {
	d, ok := r.Get(c.Domain)
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownDomain, c.Domain)
	}
	specs, err := listFunctions(d)
	if err != nil {
		return fmt.Errorf("list functions of %q: %w", c.Domain, err)
	}
	for _, spec := range specs {
		if spec.Name == c.Function && spec.Arity == len(c.Args) {
			return nil
		}
	}
	return fmt.Errorf("%w: %s:%s/%d", ErrUnknownFunction, c.Domain, c.Function, len(c.Args))
}
