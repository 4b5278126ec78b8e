// Package domain defines the abstraction the mediator uses to talk to
// external software packages and databases ("domains" in HERMES
// terminology): ground calls, call patterns with unknown-but-bound ($b)
// arguments, streaming answer sets, cost vectors, the Domain interface, and
// a registry that routes calls.
package domain

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"hermes/internal/obs"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// Errors reported by domain routing and execution.
var (
	// ErrUnknownDomain reports a call to an unregistered domain.
	ErrUnknownDomain = errors.New("unknown domain")
	// ErrUnknownFunction reports a call to a function the domain does not
	// export.
	ErrUnknownFunction = errors.New("unknown function")
	// ErrUnavailable reports that a (remote) source is temporarily
	// unreachable. The CIM may still serve such calls from cache.
	ErrUnavailable = errors.New("source temporarily unavailable")
	// ErrDeadlineExceeded reports that the execution clock passed the
	// query deadline carried by the Ctx. It is distinct from
	// context.DeadlineExceeded, which is measured against wall time.
	ErrDeadlineExceeded = errors.New("query deadline exceeded")
	// ErrOverloaded reports that the mediator shed the request before any
	// source saw it: the server-wide admission pool was saturated. Shed
	// sites wrap it together with ErrUnavailable so unavailability-aware
	// layers (the CIM's degrade-to-cache fallback) handle it, but the
	// resilience wrapper recognizes it specially and fails fast instead of
	// retrying — retrying into an overloaded server only deepens the
	// overload.
	ErrOverloaded = errors.New("server overloaded")
)

// IsOverloaded reports whether an error is an admission-control shed: the
// mediator refused the work before contacting any source. Callers should
// fail fast (or serve from cache) rather than retry immediately.
func IsOverloaded(err error) bool {
	return errors.Is(err, ErrOverloaded)
}

// Call is a ground domain call: domain:function(arg1, ..., argN). Per the
// paper all domain calls are ground when executed.
type Call struct {
	Domain   string
	Function string
	Args     []term.Value
}

// Key returns a canonical encoding of the call, used as the unique index of
// cache entries and statistics records.
func (c Call) Key() string {
	var buf [CallBuf]byte
	return string(c.AppendKey(buf[:0]))
}

// AppendKey appends the call's Key to dst, so a caller that only looks the
// key up can build it in a stack buffer and make no string.
func (c Call) AppendKey(dst []byte) []byte {
	dst = append(append(append(dst, c.Domain...), ':'), c.Function...)
	dst = append(dst, '(')
	for i, a := range c.Args {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = term.AppendKey(dst, a)
	}
	return append(dst, ')')
}

// CallBuf is the size of the stack buffer a call's key or name is built in
// before its one copy into a string; a longer one grows on the heap.
const CallBuf = 128

// String renders the call in source syntax.
func (c Call) String() string {
	var buf [CallBuf]byte
	return string(c.AppendTo(buf[:0]))
}

// AppendTo appends c.String() to dst.
func (c Call) AppendTo(dst []byte) []byte {
	dst = append(append(append(dst, c.Domain...), ':'), c.Function...)
	dst = append(dst, '(')
	for i, a := range c.Args {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = term.AppendString(dst, a)
	}
	return append(dst, ')')
}

// PatternArg is one argument of a call pattern: either a known constant or
// the special symbol $b ("bound, but value not known yet").
type PatternArg struct {
	Known bool
	Val   term.Value
}

// Const builds a known-constant pattern argument.
func Const(v term.Value) PatternArg { return PatternArg{Known: true, Val: v} }

// Bound is the $b pattern argument.
var Bound = PatternArg{}

// String renders the argument ("$b" when unknown).
func (a PatternArg) String() string {
	if !a.Known {
		return "$b"
	}
	return a.Val.String()
}

// Pattern is a domain call pattern: the argument of DCSM:cost. A pattern
// with all arguments known describes a concrete call; $b arguments stand
// for values that will be bound at run time but are unknown at planning
// time.
type Pattern struct {
	Domain   string
	Function string
	Args     []PatternArg
}

// PatternOf returns the fully-known pattern describing a ground call.
func PatternOf(c Call) Pattern {
	args := make([]PatternArg, len(c.Args))
	for i, v := range c.Args {
		args[i] = Const(v)
	}
	return Pattern{Domain: c.Domain, Function: c.Function, Args: args}
}

// String renders the pattern in DCSM syntax, e.g. "d:f(5, $b)".
func (p Pattern) String() string {
	parts := make([]string, len(p.Args))
	for i, a := range p.Args {
		parts[i] = a.String()
	}
	return p.Domain + ":" + p.Function + "(" + strings.Join(parts, ", ") + ")"
}

// Mask returns the bitmask of known argument positions (bit i set when
// argument i is a known constant).
func (p Pattern) Mask() uint64 {
	var m uint64
	for i, a := range p.Args {
		if a.Known {
			m |= 1 << uint(i)
		}
	}
	return m
}

// Relax returns a copy of the pattern with argument position i generalized
// to $b.
func (p Pattern) Relax(i int) Pattern {
	args := make([]PatternArg, len(p.Args))
	copy(args, p.Args)
	args[i] = Bound
	return Pattern{Domain: p.Domain, Function: p.Function, Args: args}
}

// CostVector is the paper's [Tf, Ta, Card] cost estimate: estimated time to
// first answer, time to all answers, and answer-set cardinality. It is the
// type spans carry (obs cannot import this package), under the name the
// planner and the sources use.
type CostVector = obs.Cost

// FuncSpec describes one function exported by a domain.
type FuncSpec struct {
	Name  string
	Arity int
	Doc   string
}

// Ctx carries per-execution state into domain calls: the clock against
// which simulated latencies and measurements accrue, an optional standard
// context for cancellation, and an optional query deadline measured on the
// execution clock.
type Ctx struct {
	Clock vclock.Clock
	// Context, when non-nil, carries cancellation from the caller. Long
	// call paths (registry routing, the engine's evaluation loops, remote
	// dials) check it and abort early when it is done.
	Context context.Context
	// Deadline, when nonzero, is the execution-clock reading past which
	// the query must not run: Err reports ErrDeadlineExceeded once
	// Clock.Now() reaches it. Measuring the deadline on the execution
	// clock keeps simulated runs deterministic — a wall-time deadline
	// would depend on host speed.
	Deadline time.Duration
	// Span, when non-nil, is the trace span covering this execution
	// scope. Layers on the call path (CIM, resilience wrapper, remote
	// client) annotate it with outcome tags; Span methods are nil-safe,
	// so they need no tracing-enabled check.
	Span *obs.Span
	// Sched, when non-nil, is the per-query parallelism budget the
	// engine's parallel operators draw evaluation lanes from. Nil means
	// strictly sequential evaluation.
	Sched *Sched
	// CallNote, when non-nil, observes every domain call whose answers
	// are read under this context: the call's key and whether it was
	// served degraded (from cache while the source was down). The engine
	// notes its direct calls; the CIM notes every entry and flight it
	// reads. The memo cache installs it to record a fill's contributing
	// inputs. Must be safe for concurrent calls — parallel branches share
	// the hook.
	CallNote func(callKey string, degraded bool)
	// TraceDepth counts mount hops from the trace origin (the federated
	// trace's ID lives on Span's root: obs.Span.TraceID). Each remote call
	// sends TraceDepth+1; a server refuses to emit trace subtrees past its
	// depth limit, which bounds mount cycles.
	TraceDepth int
}

// NewCtx returns a context over the given clock. A nil clock gets a fresh
// virtual clock.
func NewCtx(c vclock.Clock) *Ctx {
	if c == nil {
		c = vclock.NewVirtual(0)
	}
	return &Ctx{Clock: c}
}

// Fork returns a context on a forked clock, for modelling concurrent
// activity. Cancellation and the deadline propagate to the fork.
func (c *Ctx) Fork() *Ctx {
	return &Ctx{
		Clock:      c.Clock.Fork(),
		Context:    c.Context,
		Deadline:   c.Deadline,
		Span:       c.Span,
		Sched:      c.Sched,
		CallNote:   c.CallNote,
		TraceDepth: c.TraceDepth,
	}
}

// WithCallNote returns a copy of the Ctx whose domain calls are observed
// by fn (chaining with any existing hook is the caller's concern).
func (c *Ctx) WithCallNote(fn func(callKey string, degraded bool)) *Ctx {
	out := *c
	out.CallNote = fn
	return &out
}

// WithDeadline returns a copy of the Ctx whose query deadline is the
// absolute clock reading d (0 clears it).
func (c *Ctx) WithDeadline(d time.Duration) *Ctx {
	out := *c
	out.Deadline = d
	return &out
}

// WithSpan returns a copy of the Ctx scoped to trace span s, so call-path
// layers annotate the right node of the query's span tree.
func (c *Ctx) WithSpan(s *obs.Span) *Ctx {
	out := *c
	out.Span = s
	return &out
}

// Err reports why the execution should stop: the cancellation context's
// error, or ErrDeadlineExceeded when the clock passed the query deadline.
// It returns nil while the execution may continue.
func (c *Ctx) Err() error {
	if c.Context != nil {
		if err := c.Context.Err(); err != nil {
			return err
		}
	}
	if c.Deadline > 0 && c.Clock.Now() >= c.Deadline {
		return fmt.Errorf("%w (clock %s past deadline %s)",
			ErrDeadlineExceeded, c.Clock.Now(), c.Deadline)
	}
	return nil
}

// Done returns the cancellation context's channel, or nil — which blocks
// forever in a select — when the Ctx has none.
func (c *Ctx) Done() <-chan struct{} {
	if c.Context != nil {
		return c.Context.Done()
	}
	return nil
}

// Remaining returns the clock time left before the query deadline.
// ok=false means no deadline is set (infinite budget).
func (c *Ctx) Remaining() (time.Duration, bool) {
	if c.Deadline <= 0 {
		return 0, false
	}
	left := c.Deadline - c.Clock.Now()
	if left < 0 {
		left = 0
	}
	return left, true
}

// Stream is a pull-based answer stream. Next returns the next answer, or
// ok=false at end of stream. Close releases resources; it is safe to call
// Close before exhaustion (interactive mode stops running source calls).
type Stream interface {
	Next() (v term.Value, ok bool, err error)
	Close() error
}

// Domain is an external package or database integrated by the mediator.
type Domain interface {
	// Name returns the domain identifier used in rules (e.g. "avis").
	Name() string
	// Functions lists the functions the domain exports.
	Functions() []FuncSpec
	// Call executes a function on ground arguments, returning a stream of
	// answers. Implementations advance ctx.Clock by their compute and
	// transfer costs.
	Call(ctx *Ctx, fn string, args []term.Value) (Stream, error)
}

// FunctionLister is an optional interface for domains whose function
// listing can itself fail — a remote source whose server is unreachable
// has an unknown listing, not an empty one. Callers that would otherwise
// misread an empty listing as "function-less" (registry validation, plan
// enumeration) should prefer this interface when the domain provides it.
type FunctionLister interface {
	// FunctionsErr lists the exported functions, or reports why the
	// listing could not be obtained (typically wrapping ErrUnavailable,
	// which is retryable).
	FunctionsErr() ([]FuncSpec, error)
}

// IsRetryable reports whether an error is transient: retrying the call
// later may succeed. Unavailability (network partitions, outages, open
// circuit breakers wrap ErrUnavailable) is retryable; semantic errors
// (unknown domain or function, type errors) are not.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrUnavailable)
}

// Estimator is an optional interface for domains that ship a native cost
// model (e.g. a relational source with catalog statistics). The DCSM uses
// it in preference to cached statistics, filling in any missing components
// from the statistics cache (§6).
type Estimator interface {
	// EstimateCost returns a cost estimate for a call pattern. ok=false
	// means the domain has no estimate for this pattern. missing reports
	// vector components the domain could not estimate (any of "tf", "ta",
	// "card"). It may not retain p.Args after it returns: the DCSM reuses
	// them.
	EstimateCost(p Pattern) (cv CostVector, missing []string, ok bool)
}
