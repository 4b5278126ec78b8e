package engine

import (
	"errors"
	"fmt"
	"time"

	"hermes/internal/cim"
	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/resilience"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// frameStream is the stream of one body level: each answer it yields is
// written into the activation's frame, at the positions the level binds.
type frameStream interface {
	next() (bool, error)
	close() error
}

// emptyStream yields nothing.
type emptyStream struct{}

func (emptyStream) next() (bool, error) { return false, nil }
func (emptyStream) close() error        { return nil }

// bodyIter evaluates a compiled rule body by pipelined nested loops with
// backtracking over one frame: when level i yields, the frame holds the
// bindings of the first i+1 literals.
type bodyIter struct {
	eng   *Engine
	ctx   *domain.Ctx
	rc    *rewrite.RuleCode
	f     term.Frame
	depth int
	// body is the query's own body when rc is its compiled query rule,
	// for the literals an error names; nil for a plan rule.
	body []lang.Literal

	streams []frameStream
	inited  bool
	done    bool

	// stage holds the spool producers of the rule's independent in()
	// literals (rc.Indep) once evaluation reaches the first of them.
	stage *stage
}

// next advances to the body's next solution, left in b.f.
func (b *bodyIter) next() (bool, error) {
	if b.done {
		return false, nil
	}
	// ok: level i has just yielded (i = -1 is the activation's entry).
	i, ok := len(b.streams)-1, false
	if !b.inited {
		b.inited, ok = true, true
	}
	for {
		if err := b.ctx.Err(); err != nil {
			b.shutdown()
			return false, err
		}
		if ok {
			if i == len(b.rc.Lits)-1 {
				b.done = i < 0 // an empty body yields its entry once
				return true, nil
			}
			s, passed, err := b.openLevel(i + 1)
			if err != nil {
				b.shutdown()
				return false, err
			}
			b.streams = append(b.streams, s)
			i, ok = i+1, passed
			continue
		}
		if i < 0 {
			b.shutdown()
			return false, nil
		}
		var err error
		if ok, err = b.streams[i].next(); err != nil {
			b.shutdown()
			return false, err
		}
		if !ok {
			b.streams[i].close()
			b.streams = b.streams[:i]
			i--
		}
	}
}

// openLevel opens a level's stream. A comparison is decided at once:
// passed reports that it held (and made its binding), and its stream is
// then spent.
func (b *bodyIter) openLevel(level int) (s frameStream, passed bool, err error) {
	lc := &b.rc.Lits[level]
	if indep := b.rc.Indep; indep != nil && level == indep[0] && b.stage == nil && b.ctx.Sched.Limit() > 1 {
		// First entry into the independent-sibling region: launch the
		// producers that prefetch the later independent literals' streams.
		b.stage = b.eng.newStage(b.ctx, b.rc, b.f)
	}
	switch lc.Op {
	case rewrite.OpFilter:
		ok, err := lc.Lit.(*lang.Comparison).Holds(b.f, lc.Args[0], lc.Args[1])
		if err != nil {
			return nil, false, fmt.Errorf("engine: %s: %w", b.lit(lc), err)
		}
		return emptyStream{}, ok, nil
	case rewrite.OpAssign:
		v, err := b.f.Eval(lc.Args[1])
		if err != nil {
			return nil, false, err
		}
		b.f[lc.Args[0].Pos] = v
		return emptyStream{}, true, nil
	case rewrite.OpAtom:
		s, err := b.evalAtom(lc)
		return s, false, err
	}
	if b.stage != nil {
		if sp, ok := b.stage.spools[level]; ok {
			return &replayStream{sp: sp, ctx: b.ctx, f: b.f, pos: lc.Args[0].Pos}, false, nil
		}
	}
	s, err = b.eng.evalInCall(b.ctx, lc, b.lit(lc), b.f)
	return s, false, err
}

// lit returns a level's literal as the query or rule being evaluated
// states it.
func (b *bodyIter) lit(lc *rewrite.LitCode) lang.Literal {
	if b.body != nil {
		return b.body[lc.BI]
	}
	return lc.Lit
}

func (b *bodyIter) shutdown() {
	for i := len(b.streams) - 1; i >= 0; i-- {
		b.streams[i].close()
	}
	b.streams = nil
	if b.stage != nil {
		b.stage.close()
	}
	b.done = true
}

func (b *bodyIter) close() error {
	b.shutdown()
	return nil
}

// boundArgs evaluates an atom's bound arguments, nil at its free
// positions.
func (b *bodyIter) boundArgs(lc *rewrite.LitCode) ([]term.Value, error) {
	vals := make([]term.Value, len(lc.Args))
	for i, s := range lc.Args {
		if lc.Key.Adorn[i] == 'b' {
			v, err := b.f.Eval(s)
			if err != nil {
				return nil, fmt.Errorf("engine: %s argument %d: %w", b.lit(lc), i+1, err)
			}
			vals[i] = v
		}
	}
	return vals, nil
}

// evalInCall executes a domain call (direct or through the CIM) and binds
// or tests the output term: the call's record is the level's stream. lit
// is the level's literal as an error names it.
func (e *Engine) evalInCall(ctx *domain.Ctx, lc *rewrite.LitCode, lit lang.Literal, f term.Frame) (frameStream, error) {
	args, err := f.EvalAll(lc.Args[1:])
	if err != nil {
		return nil, fmt.Errorf("engine: domain call %s argument not ground: %w", lit, err)
	}
	cs, err := e.openCallStream(ctx, lc.Lit.(*lang.InCall), lc.Route, args)
	if err != nil {
		return nil, err
	}
	if lc.Op == rewrite.OpBind {
		cs.out = &f[lc.Args[0].Pos]
		return cs, nil
	}
	// Membership test: the output is already ground; find one match then
	// prune (answer sets are sets).
	if cs.want, err = f.Eval(lc.Args[0]); err != nil {
		cs.close()
		return nil, err
	}
	return cs, nil
}

// openCallStream issues an in() literal's domain call on its ground
// arguments (direct or through the CIM) and returns its record, metered
// onto a fresh call span. It is the shared lower half of evalInCall and
// the parallel stage's spool producers. The span, and so its name, is made
// only when the caller traces.
func (e *Engine) openCallStream(ctx *domain.Ctx, l *lang.InCall, route rewrite.Route, args []term.Value) (*callStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cs := &callStream{eng: e, ctx: *ctx, lit: l, args: args, issuedAt: ctx.Clock.Now()}
	call := cs.call()
	if ctx.Span != nil {
		cs.span = ctx.Span.Child("", cs.issuedAt)
		cs.span.SetName(cs)
		cs.span.SetTag("route", route.String())
		if e.estimate != nil {
			if cv, ok := e.estimate(call); ok {
				cs.span.SetEstimate(cv)
			}
		}
	}
	cs.ctx.Span = cs.span
	e.calls[route].Inc()
	var err error
	if route == rewrite.RouteCIM && e.cim != nil {
		// The CIM notes the calls it reads to ctx.CallNote itself.
		var resp cim.Response
		resp, err = e.cim.CallThrough(&cs.ctx, call)
		cs.inner = resp.Stream
	} else if cs.inner, err = e.reg.Call(&cs.ctx, call); err == nil {
		cs.meter, cs.measuring = domain.NewSourceMeter(ctx.Clock.Now()-cs.issuedAt), true
		if note := ctx.CallNote; note != nil {
			note(call.Key(), false)
		}
	}
	if err != nil {
		return nil, e.callFailed(ctx, cs.span, err)
	}
	return cs, nil
}

// callFailed records a domain call that died at setup: it tags and ends
// the call span and counts the failure. An open circuit breaker is
// surfaced (breaker=open) rather than skipped silently.
func (e *Engine) callFailed(ctx *domain.Ctx, span *obs.Span, err error) error {
	reason := reasonError
	if errors.Is(err, resilience.ErrBreakerOpen) {
		reason = reasonBreakerOpen
		span.SetTag("breaker", "open")
	}
	span.SetTag("error", err.Error())
	span.End(ctx.Clock.Now())
	e.callErrors[reason].Inc()
	return err
}

// callStream is one domain call as the engine serves it, and the one
// record openCallStream allocates for it. It holds:
//   - the call's child context by value, scoped to its span;
//   - the span's metering: measured [Tf, Ta, Card] (covering cache-served
//     streams, which produce no domain.Measurement) and the span's end
//     time. The span ends when the stream is exhausted, errors, or is
//     closed early (pruning). Its actual includes consumer-side stall time
//     between pulls;
//   - on the direct route, the source measurement the DCSM calibrates from
//     (a domain.SourceMeter, as in domain.MeasuredStream): only the call
//     setup time plus the time spent inside the source's Next, so an
//     outer join operand's open stream is not charged the inner literals'
//     work;
//   - the level's frame binding: each answer is stored at the output's
//     frame position, or, for a membership test, compared with the wanted
//     value until one matches, and then the source is closed (pruning).
//
// The parallel stage's producers drain the same record through pull and
// bind nothing. Only the call span may keep the record past the call: it
// keeps it as the Appender of its name for as long as the trace lives, so
// what AppendTo reads, the literal and the args, never changes. A cache
// entry's or a DCSM record's call holds the args slice, which is its own
// allocation, and a span copies the costs it is given into its trace's
// records.
type callStream struct {
	eng      *Engine
	ctx      domain.Ctx // the caller's context, scoped to span
	lit      *lang.InCall
	args     []term.Value
	inner    domain.Stream
	meter    domain.SourceMeter // the direct route's source measurement
	span     *obs.Span
	issuedAt time.Duration
	first    time.Duration // the span's Tf: issue to first answer, stalls included
	n        int           // answers pulled

	out  *term.Value // the frame position a binding level stores at
	want term.Value  // a membership test's ground output; nil when binding

	spanDone  bool
	measuring bool // the direct route, until its measurement is reported
	closed    bool
}

// AppendTo names the call span: "call " and the call.
func (cs *callStream) AppendTo(dst []byte) []byte {
	return cs.call().AppendTo(append(dst, "call "...))
}

// call is the domain call the record serves.
func (cs *callStream) call() domain.Call {
	return domain.Call{Domain: cs.lit.Call.Domain, Function: cs.lit.Call.Function, Args: cs.args}
}

// next yields the level's next solution into the frame.
func (cs *callStream) next() (bool, error) {
	if cs.want == nil {
		v, ok, err := cs.pull()
		if err != nil || !ok {
			return false, err
		}
		*cs.out = v
		return true, nil
	}
	for !cs.closed {
		v, ok, err := cs.pull()
		if err != nil || !ok {
			return false, err
		}
		if term.Equal(v, cs.want) {
			cs.close() // prune the rest of the stream
			return true, nil
		}
	}
	return false, nil
}

// pull returns the call's next raw answer, metering it onto the span and,
// on the direct route, into the source measurement.
func (cs *callStream) pull() (v term.Value, ok bool, err error) {
	if cs.measuring {
		v, ok, err = cs.meter.Next(cs.inner, cs.ctx.Clock)
	} else {
		v, ok, err = cs.inner.Next()
	}
	if err != nil {
		cs.span.SetTag("error", err.Error())
		cs.endSpan()
		return nil, false, err
	}
	if !ok {
		cs.measure(true)
		cs.endSpan()
		return nil, false, nil
	}
	if cs.n == 0 {
		cs.first = cs.ctx.Clock.Now() - cs.issuedAt
	}
	cs.n++
	return v, true, nil
}

// close closes the source once, reporting an unfinished measurement as
// incomplete, and ends the span.
func (cs *callStream) close() error {
	if cs.closed {
		return nil
	}
	cs.closed = true
	err := cs.inner.Close()
	cs.measure(false)
	cs.endSpan()
	return err
}

// measure reports the direct route's measurement once: complete when the
// source was exhausted, incomplete when it was closed first.
func (cs *callStream) measure(complete bool) {
	if !cs.measuring {
		return
	}
	cs.measuring = false
	if on := cs.eng.onMeasure; on != nil {
		on(cs.meter.Measurement(cs.call(), complete))
	}
}

// endSpan sets the span's actual cost and ends it, once.
func (cs *callStream) endSpan() {
	if cs.span == nil || cs.spanDone {
		return
	}
	cs.spanDone = true
	now := cs.ctx.Clock.Now()
	all := now - cs.issuedAt
	tf := cs.first
	if cs.n == 0 {
		tf = all
	}
	cs.span.SetActual(obs.Cost{TFirst: tf, TAll: all, Card: float64(cs.n)})
	cs.span.End(now)
}

// evalAtom evaluates an IDB predicate occurrence through the plan's rules
// for its adornment, concatenating the rules' answers (union, no
// duplicate elimination).
func (b *bodyIter) evalAtom(lc *rewrite.LitCode) (frameStream, error) {
	if b.depth >= maxDepth {
		return nil, fmt.Errorf("engine: recursion deeper than %d evaluating %s", maxDepth, lc.Key.Pred)
	}
	in, err := b.boundArgs(lc)
	if err != nil {
		return nil, err
	}
	if b.eng.memo != nil {
		if ms, ok := b.eng.newMemoStream(b.ctx, b.rc.Prog, lc, b.f, in, b.depth); ok {
			return ms, nil
		}
	}
	return b.eng.buildAtomStream(b.ctx, b.rc.Prog, lc, b.f, in, b.depth), nil
}

// buildAtomStream opens the actual evaluation of an IDB occurrence: a
// parallel union of the alternatives when the scheduler grants lanes, the
// sequential union otherwise. in holds the occurrence's bound argument
// values. It is the memo-free lower half of evalAtom, shared with the
// memo's fill path.
func (e *Engine) buildAtomStream(ctx *domain.Ctx, prog *rewrite.Program, lc *rewrite.LitCode, f term.Frame, in []term.Value, depth int) frameStream {
	rules, err := prog.Rules(lc)
	o := occurrence{eng: e, ctx: ctx, lc: lc, rules: rules, f: f, in: in, depth: depth}
	if len(rules) >= 2 {
		if pu := newParallelUnion(o); pu != nil {
			return pu
		}
	}
	return &atomStream{occurrence: o, err: err}
}

// occurrence is one evaluation of an IDB atom: its compiled literal and
// plan rules, the caller's frame and its bound argument values.
type occurrence struct {
	eng   *Engine
	ctx   *domain.Ctx
	lc    *rewrite.LitCode
	rules []*rewrite.RuleCode
	f     term.Frame
	in    []term.Value
	depth int
}

// atomStream unions the plan rules for an atom, mapping each rule-body
// solution back into the caller's frame.
type atomStream struct {
	occurrence
	err     error // why the rules could not be compiled
	ruleIdx int
	current *bodyIter
}

func (as *atomStream) next() (bool, error) {
	if as.err != nil {
		return false, as.err
	}
	for {
		if as.current == nil {
			if as.ruleIdx >= len(as.rules) {
				return false, nil
			}
			rc := as.rules[as.ruleIdx]
			as.ruleIdx++
			callee, ok := enter(rc, as.in)
			if !ok {
				continue // head constants conflict with the call
			}
			as.current = &bodyIter{eng: as.eng, ctx: as.ctx, rc: rc, f: callee, depth: as.depth + 1}
		}
		ok, err := as.current.next()
		if err != nil {
			return false, err
		}
		if !ok {
			as.current.close()
			as.current = nil
			continue
		}
		if ok, err := mapBack(as.lc, as.f, as.current.rc, as.current.f); ok || err != nil {
			return ok, err
		}
	}
}

func (as *atomStream) close() error {
	if as.current != nil {
		return as.current.close()
	}
	return nil
}

// enter builds the frame a rule is entered with: each bound caller value
// (nil at free positions) unified with its head term.
func enter(rc *rewrite.RuleCode, in []term.Value) (term.Frame, bool) {
	f := make(term.Frame, len(rc.Vars))
	for i, v := range in {
		if v != nil && !f.Unify(rc.Head[i], v) {
			return nil, false
		}
	}
	return f, true
}

// mapBack projects a rule-body solution onto the caller's frame: it
// clears the positions from the level's own on, then unifies each
// argument with its head term's value in the callee frame, so bound
// values and repeated variables filter.
func mapBack(lc *rewrite.LitCode, f term.Frame, rc *rewrite.RuleCode, callee term.Frame) (bool, error) {
	clear(f[lc.Lo:])
	for i, arg := range lc.Args {
		v, err := callee.Eval(rc.Head[i])
		if err != nil {
			return false, fmt.Errorf("engine: head term %s of %s unbound after body: %w", rc.Head[i].Term, lc.Key.Pred, err)
		}
		if !f.Unify(arg, v) {
			return false, nil
		}
	}
	return true, nil
}
