// Package domaintest provides a scriptable in-memory domain for tests and
// examples: each function is a Go closure over ground arguments, with
// configurable per-call and per-answer costs charged to the execution
// clock.
package domaintest

import (
	"fmt"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// Func is one scriptable source function.
type Func struct {
	Arity int
	// Fn computes the answer set. A nil error and nil slice is an empty
	// answer set.
	Fn func(args []term.Value) ([]term.Value, error)
	// PerCall is charged when the function is invoked.
	PerCall time.Duration
	// PerAnswer is charged as each answer is streamed.
	PerAnswer time.Duration
}

// Domain is a scriptable domain.
type Domain struct {
	name  string
	funcs map[string]Func
	// mu guards Calls: parallel query branches invoke the domain
	// concurrently. Read Calls directly only after execution finished.
	mu sync.Mutex
	// Calls records every invocation, in order.
	Calls []domain.Call
}

// New creates an empty scriptable domain.
func New(name string) *Domain {
	return &Domain{name: name, funcs: make(map[string]Func)}
}

// Define registers a function.
func (d *Domain) Define(name string, f Func) *Domain {
	d.funcs[name] = f
	return d
}

// Key builds the call key of an argument list, for tables of fixed answers.
func (d *Domain) Key(fn string, args ...term.Value) string {
	return domain.Call{Domain: d.name, Function: fn, Args: args}.Key()
}

// CallCount returns how many times fn was invoked.
func (d *Domain) CallCount(fn string) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	for _, c := range d.Calls {
		if c.Function == fn {
			n++
		}
	}
	return n
}

// Name implements domain.Domain.
func (d *Domain) Name() string { return d.name }

// Functions implements domain.Domain.
func (d *Domain) Functions() []domain.FuncSpec {
	var out []domain.FuncSpec
	for n, f := range d.funcs {
		out = append(out, domain.FuncSpec{Name: n, Arity: f.Arity})
	}
	return out
}

// Call implements domain.Domain.
func (d *Domain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	f, ok := d.funcs[fn]
	if !ok {
		return nil, fmt.Errorf("%w: %s:%s", domain.ErrUnknownFunction, d.name, fn)
	}
	if len(args) != f.Arity {
		return nil, fmt.Errorf("%s:%s/%d called with %d args", d.name, fn, f.Arity, len(args))
	}
	d.mu.Lock()
	d.Calls = append(d.Calls, domain.Call{Domain: d.name, Function: fn, Args: args})
	d.mu.Unlock()
	ctx.Clock.Sleep(f.PerCall)
	vals, err := f.Fn(args)
	if err != nil {
		return nil, err
	}
	return domain.NewTimedSliceStream(vals, ctx.Clock, f.PerAnswer), nil
}

// Meter wraps a domain and measures source-observed concurrency: how many
// calls are open — Call entered, answer stream neither exhausted nor
// closed — at each moment, with a lifetime high-water mark. Admission
// tests wrap every source in a Meter and assert Peak never exceeds the
// pool capacity, no matter how many sessions ran.
type Meter struct {
	inner domain.Domain

	mu    sync.Mutex
	cur   int
	peak  int
	total int
}

// Metered wraps d in a concurrency meter.
func Metered(d domain.Domain) *Meter { return &Meter{inner: d} }

// Name implements domain.Domain.
func (m *Meter) Name() string { return m.inner.Name() }

// Functions implements domain.Domain.
func (m *Meter) Functions() []domain.FuncSpec { return m.inner.Functions() }

// Inner returns the wrapped domain, composing with the registry's
// unwrap-chain walks.
func (m *Meter) Inner() domain.Domain { return m.inner }

// Call implements domain.Domain, counting the call as open until its
// stream is exhausted, errors, or is closed.
func (m *Meter) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	m.mu.Lock()
	m.cur++
	m.total++
	if m.cur > m.peak {
		m.peak = m.cur
	}
	m.mu.Unlock()
	s, err := m.inner.Call(ctx, fn, args)
	if err != nil {
		m.release()
		return nil, err
	}
	return &meteredStream{inner: s, m: m}, nil
}

func (m *Meter) release() {
	m.mu.Lock()
	m.cur--
	m.mu.Unlock()
}

// Current returns how many calls are open right now.
func (m *Meter) Current() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cur
}

// Peak returns the lifetime high-water mark of concurrently open calls.
func (m *Meter) Peak() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.peak
}

// Total returns how many calls were issued in total.
func (m *Meter) Total() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

type meteredStream struct {
	inner domain.Stream
	m     *Meter
	done  bool
}

func (s *meteredStream) finish() {
	if !s.done {
		s.done = true
		s.m.release()
	}
}

func (s *meteredStream) Next() (term.Value, bool, error) {
	v, ok, err := s.inner.Next()
	if err != nil || !ok {
		s.finish()
	}
	return v, ok, err
}

func (s *meteredStream) Close() error {
	err := s.inner.Close()
	s.finish()
	return err
}
