// Package engine implements the HERMES run-time query processor assumed by
// the paper's cost model: pipelined nested-loop evaluation of plan rule
// bodies, left to right, with backtracking, no duplicate elimination, and
// streaming answers. Domain calls execute when reached (their arguments are
// then ground); an in() literal whose output is already bound is a
// membership test that prunes as soon as a match is found.
//
// The engine supports the paper's two modes of operation through its
// cursor: all-answers mode drains the cursor; interactive mode pulls
// batches and may close early, which stops running source calls (and, via
// the CIM's lazy partial streams, can avoid issuing actual calls at all).
package engine

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"

	"hermes/internal/cim"
	"hermes/internal/domain"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// Config tunes the engine's two modelled overheads. Neither decides
// evaluation order: a union's rules launch in program order, sequentially
// or on parallel lanes, and the engine never prices a rule at run time.
type Config struct {
	// QueryInit is a modelled fixed per-query setup cost; the paper's
	// reported times include "query initialization + wait for response +
	// display". Like PerDisplay it is zero except under the experiments'
	// overhead profile.
	QueryInit time.Duration
	// PerDisplay is a modelled charge per answer delivered to the user.
	PerDisplay time.Duration
}

// maxDepth bounds IDB recursion during evaluation.
const maxDepth = 64

// Engine executes plans.
type Engine struct {
	reg       *domain.Registry
	cim       *cim.Manager // nil when no CIM is deployed
	memo      *memo.Cache  // nil when rule-level memoization is off
	cfg       Config
	obs       *obs.Observer
	estimate  func(domain.Call) (domain.CostVector, bool)
	onMeasure func(domain.Measurement)

	// Event tallies, attached to obs's metrics registry by New.
	queries          obs.Counter
	calls            [2]obs.Counter // by rewrite.Route
	callErrors       [len(callErrorReasons)]obs.Counter
	tfirstMS, tallMS obs.Histogram
}

// Why a domain call can die at setup: the reason label of
// hermes_engine_call_errors_total.
const reasonError, reasonBreakerOpen = 0, 1

var callErrorReasons = [...]string{reasonError: "error", reasonBreakerOpen: "breaker-open"}

// New builds an engine. cimMgr may be nil. o (may be nil) receives query
// and call spans and the engine's metrics. estimate (may be nil) prices a
// traced call as it is issued, so EXPLAIN shows estimated versus actual
// [Tf, Ta, Card]; the mediator wires it to the DCSM's uncounted read.
// onMeasure (may be nil) observes the measurement of every direct source
// call, for the DCSM.
func New(reg *domain.Registry, cimMgr *cim.Manager, cfg Config, o *obs.Observer, estimate func(domain.Call) (domain.CostVector, bool), onMeasure func(domain.Measurement)) *Engine {
	e := &Engine{reg: reg, cim: cimMgr, cfg: cfg, obs: o, estimate: estimate, onMeasure: onMeasure}
	// The hermes_engine_*, hermes_queries_total and hermes_query_* families
	// are declared here and nowhere else.
	r := o.Registry()
	r.AttachCounter("hermes_queries_total", "queries executed by the embedded mediator", e.queries.Value)
	r.AttachHistogram("hermes_query_tfirst_ms", "milliseconds to each query's first answer", &e.tfirstMS)
	r.AttachHistogram("hermes_query_tall_ms", "milliseconds to each query's last answer", &e.tallMS)
	for route := range e.calls {
		r.AttachCounter("hermes_engine_calls_total", "domain calls issued by the engine, by route (direct or via the CIM)", e.calls[route].Value, "route", rewrite.Route(route).String())
	}
	for i, reason := range callErrorReasons {
		r.AttachCounter("hermes_engine_call_errors_total", "domain calls that failed, by reason", e.callErrors[i].Value, "reason", reason)
	}
	return e
}

// SetMemo installs the rule-level memo cache the engine consults before
// re-expanding an IDB subgoal (nil disables memoization). Set before the
// engine executes queries.
func (e *Engine) SetMemo(mc *memo.Cache) { e.memo = mc }

// Answer is one query answer: the bindings of the query's variables.
type Answer struct {
	// Vars lists the query variables in first-occurrence order; Vals their
	// values, aligned.
	Vars []string
	Vals []term.Value
}

// Value returns the value of the query variable name.
func (a Answer) Value(name string) (term.Value, bool) {
	if i := slices.Index(a.Vars, name); i >= 0 {
		return a.Vals[i], true
	}
	return nil, false
}

// answerBuf is the stack buffer an answer renders into before its one
// copy into a string; a longer answer grows on the heap.
const answerBuf = 256

// String renders the answer as var=value pairs.
func (a Answer) String() string {
	var buf [answerBuf]byte
	b := append(buf[:0], '{')
	for i, v := range a.Vars {
		if i > 0 {
			b = append(b, ", "...)
		}
		b = append(append(b, v...), '=')
		b = term.AppendString(b, a.Vals[i])
	}
	return string(append(b, '}'))
}

// Metrics are the observed timings of a query execution.
type Metrics struct {
	TFirst  time.Duration
	TAll    time.Duration
	Answers int
	Bytes   int
	// Complete is false when the cursor was closed before exhaustion.
	Complete bool
}

// Summary is the line both binaries print under a query's answers. Times
// show at microsecond resolution: a warm query on a live node finishes in
// tens of microseconds, which whole milliseconds would print as 0.
func (m Metrics) Summary() string {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return fmt.Sprintf("%d answers, first in %.3fms, all in %.3fms", m.Answers, ms(m.TFirst), ms(m.TAll))
}

// Cursor streams query answers. It realizes the interactive mode: pull as
// many answers as needed, then Close to stop all running source calls.
type Cursor struct {
	eng      *Engine
	ctx      *domain.Ctx
	vars     []string
	pos      []int // each query variable's frame position
	iter     *bodyIter
	start    time.Duration
	metrics  Metrics
	gotFirst bool
	done     bool
	span     *obs.Span
}

// Next returns the next answer. A cancelled context or an exceeded query
// deadline surfaces as an error (the cursor is closed).
func (c *Cursor) Next() (Answer, bool, error) {
	if c.done {
		return Answer{}, false, nil
	}
	if err := c.ctx.Err(); err != nil {
		c.Close()
		return Answer{}, false, err
	}
	ok, err := c.iter.next()
	if err != nil {
		return Answer{}, false, err
	}
	if !ok {
		c.finish(true)
		return Answer{}, false, nil
	}
	c.ctx.Clock.Sleep(c.eng.cfg.PerDisplay)
	now := c.ctx.Clock.Now() - c.start
	if !c.gotFirst {
		c.gotFirst = true
		c.metrics.TFirst = now
	}
	c.metrics.Answers++
	a := Answer{Vars: c.vars, Vals: make([]term.Value, len(c.vars))}
	for i, pos := range c.pos {
		val := c.iter.f[pos]
		if val == nil {
			return Answer{}, false, fmt.Errorf("engine: query variable %s unbound in answer", c.vars[i])
		}
		a.Vals[i] = val
		c.metrics.Bytes += term.SizeBytes(val)
	}
	return a, true, nil
}

// Close stops the cursor and any running source calls.
func (c *Cursor) Close() error {
	err := c.iter.close()
	c.finish(false)
	return err
}

func (c *Cursor) finish(complete bool) {
	if c.done {
		return
	}
	c.done = true
	c.metrics.TAll = c.ctx.Clock.Now() - c.start
	if !c.gotFirst {
		c.metrics.TFirst = c.metrics.TAll
	}
	c.metrics.Complete = complete
	c.span.SetTagInt("answers", c.metrics.Answers)
	c.span.SetTag("complete", strconv.FormatBool(complete))
	c.span.SetActual(obs.Cost{
		TFirst: c.metrics.TFirst,
		TAll:   c.metrics.TAll,
		Card:   float64(c.metrics.Answers),
	})
	// Ending is idempotent, so it is safe whether the span was opened here
	// or handed in by the mediator; a root span publishes to the tracer.
	c.span.End(c.ctx.Clock.Now())
	c.eng.tfirstMS.Observe(float64(c.metrics.TFirst) / float64(time.Millisecond))
	c.eng.tallMS.Observe(float64(c.metrics.TAll) / float64(time.Millisecond))
}

// Metrics returns the timings observed so far (final after exhaustion or
// Close).
func (c *Cursor) Metrics() Metrics { return c.metrics }

// Span returns the query span this cursor annotates (nil when tracing is
// off). The span is final after exhaustion or Close.
func (c *Cursor) Span() *obs.Span { return c.span }

// ExecutePlan starts executing a plan, returning a cursor over its
// answers. If ctx already carries a span (the mediator opens the query
// root and hangs rewrite/plan-choice spans off it), call spans attach
// there; otherwise, when the engine has an observer, it opens and later
// ends its own root span.
func (e *Engine) ExecutePlan(ctx *domain.Ctx, plan *rewrite.Plan) (*Cursor, error) {
	start := ctx.Clock.Now()
	span := ctx.Span
	if span == nil && e.obs != nil {
		span = e.obs.StartQuery("", start)
		span.SetName(rewrite.QueryLine{Plan: plan})
		ctx = ctx.WithSpan(span)
	}
	e.queries.Inc()
	if n := ctx.Sched.Limit(); n > 1 {
		span.SetTagInt("parallel", n)
	}
	ctx.Clock.Sleep(e.cfg.QueryInit)
	rc := (&compiler{plan: plan, parallel: ctx.Sched.Limit() > 1}).rule(plan.Query, "")
	var vars []string
	var pos []int
	for _, lit := range plan.Query.Rule.Body {
		for _, v := range lit.Vars(nil) {
			if !slices.Contains(vars, v) {
				vars, pos = append(vars, v), append(pos, rc.vars.Pos(v))
			}
		}
	}
	iter := &bodyIter{eng: e, ctx: ctx, rc: rc, f: make(term.Frame, len(rc.vars))}
	return &Cursor{eng: e, ctx: ctx, vars: vars, pos: pos, iter: iter, start: start, span: span}, nil
}

// CollectAll drains a cursor (all-answers mode).
func CollectAll(c *Cursor) ([]Answer, Metrics, error) { return CollectFirst(c, math.MaxInt) }

// CollectFirst pulls up to n answers and closes the cursor (interactive
// mode stopping early).
func CollectFirst(c *Cursor, n int) ([]Answer, Metrics, error) {
	var out []Answer
	for len(out) < n {
		a, ok, err := c.Next()
		if err != nil {
			c.Close()
			return out, c.Metrics(), err
		}
		if !ok {
			return out, c.Metrics(), nil
		}
		out = append(out, a)
	}
	c.Close()
	return out, c.Metrics(), nil
}
