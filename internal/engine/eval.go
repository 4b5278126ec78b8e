package engine

import (
	"errors"
	"fmt"
	"time"

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
	rc    *ruleCode
	f     term.Frame
	depth int

	streams []frameStream
	inited  bool
	done    bool

	// stage holds the spool producers of the rule's independent in()
	// literals (rc.indep) once evaluation reaches the first of them.
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
			if i == len(b.rc.lits)-1 {
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
	lc := &b.rc.lits[level]
	if indep := b.rc.indep; indep != nil && level == indep[0] && b.stage == nil {
		// First entry into the independent-sibling region: launch the
		// producers that prefetch the later independent literals' streams.
		b.stage = b.eng.newStage(b.ctx, b.rc, b.f)
	}
	switch lc.op {
	case opFilter:
		c := lc.lit.(*lang.Comparison)
		ok, err := c.Holds(b.f, lc.args[0], lc.args[1])
		if err != nil {
			return nil, false, fmt.Errorf("engine: %s: %w", c, err)
		}
		return emptyStream{}, ok, nil
	case opAssign:
		v, err := b.f.Eval(lc.args[1])
		if err != nil {
			return nil, false, err
		}
		b.f[lc.args[0].Pos] = v
		return emptyStream{}, true, nil
	case opAtom:
		s, err := b.evalAtom(lc)
		return s, false, err
	}
	if b.stage != nil {
		if sp, ok := b.stage.spools[level]; ok {
			return &replayStream{sp: sp, ctx: b.ctx, f: b.f, pos: lc.args[0].Pos}, false, nil
		}
	}
	s, err = b.eng.evalInCall(b.ctx, lc, b.f)
	return s, false, err
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
func boundArgs(lc *litCode, f term.Frame) ([]term.Value, error) {
	vals := make([]term.Value, len(lc.args))
	for i, s := range lc.args {
		if lc.key.Adorn[i] == 'b' {
			v, err := f.Eval(s)
			if err != nil {
				return nil, fmt.Errorf("engine: %s argument %d: %w", lc.lit, i+1, err)
			}
			vals[i] = v
		}
	}
	return vals, nil
}

// evalInCall executes a domain call (direct or through the CIM) and binds
// or tests the output term.
func (e *Engine) evalInCall(ctx *domain.Ctx, lc *litCode, f term.Frame) (frameStream, error) {
	args, err := f.EvalAll(lc.args[1:])
	if err != nil {
		return nil, fmt.Errorf("engine: domain call %s argument not ground: %w", lc.lit, err)
	}
	stream, err := e.openCallStream(ctx, lc.lit.(*lang.InCall), lc.route, args)
	if err != nil {
		return nil, err
	}
	if lc.op == opBind {
		return &bindStream{inner: stream, f: f, pos: lc.args[0].Pos}, nil
	}
	// Membership test: the output is already ground; find one match then
	// prune (answer sets are sets).
	want, err := f.Eval(lc.args[0])
	if err != nil {
		stream.Close()
		return nil, err
	}
	return &membershipStream{inner: stream, want: want}, nil
}

// openCallStream issues an in() literal's domain call on its ground
// arguments (direct or through the CIM), returning the raw answer stream
// metered onto a fresh call span. It is the shared lower half of
// evalInCall and the parallel stage's spool producers.
func (e *Engine) openCallStream(ctx *domain.Ctx, l *lang.InCall, route rewrite.Route, args []term.Value) (domain.Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	call := domain.Call{Domain: l.Call.Domain, Function: l.Call.Function, Args: args}
	issuedAt := ctx.Clock.Now()
	span := ctx.Span.Child(call.Prefixed("call "), issuedAt)
	span.SetTag("route", route.String())
	if span != nil && e.estimate != nil {
		if cv, ok := e.estimate(domain.PatternOf(call)); ok {
			span.SetEstimate(cv)
		}
	}
	e.calls[route].Inc()
	cctx := ctx.WithSpan(span)
	var stream domain.Stream
	if route == rewrite.RouteCIM && e.cim != nil {
		// The CIM notes the calls it reads to ctx.CallNote itself.
		resp, err := e.cim.CallThrough(cctx, call)
		if err != nil {
			return nil, e.callFailed(ctx, span, err)
		}
		stream = resp.Stream
	} else {
		inner, err := e.reg.Call(cctx, call)
		if err != nil {
			return nil, e.callFailed(ctx, span, err)
		}
		stream = domain.NewMeasuredStreamAt(inner, ctx.Clock, call, issuedAt, e.onMeasure)
		if note := ctx.CallNote; note != nil {
			note(call.Key(), false)
		}
	}
	return &spanStream{inner: stream, ctx: ctx, span: span, issuedAt: issuedAt}, nil
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

// spanStream meters a call's answer stream onto its span: measured
// [Tf, Ta, Card] (covering cache-served streams, which produce no
// domain.Measurement) and the span's end time. The span ends when the
// stream is exhausted, errors, or is closed early (pruning). Note the
// span's actual includes consumer-side stall time between pulls; the
// source-side cost that calibrates the DCSM travels separately, as a
// domain.Measurement through the measurement hook.
type spanStream struct {
	inner    domain.Stream
	ctx      *domain.Ctx
	span     *obs.Span
	issuedAt time.Duration
	first    time.Duration
	n        int
	gotFirst bool
	finished bool
}

func (ss *spanStream) Next() (term.Value, bool, error) {
	v, ok, err := ss.inner.Next()
	if err != nil {
		ss.span.SetTag("error", err.Error())
		ss.finish()
		return v, ok, err
	}
	if !ok {
		ss.finish()
		return v, ok, nil
	}
	ss.n++
	if !ss.gotFirst {
		ss.gotFirst = true
		ss.first = ss.ctx.Clock.Now() - ss.issuedAt
	}
	return v, true, nil
}

func (ss *spanStream) Close() error {
	err := ss.inner.Close()
	ss.finish()
	return err
}

func (ss *spanStream) finish() {
	if ss.finished {
		return
	}
	ss.finished = true
	now := ss.ctx.Clock.Now()
	all := now - ss.issuedAt
	tf := ss.first
	if !ss.gotFirst {
		tf = all
	}
	actual := obs.Cost{TFirst: tf, TAll: all, Card: float64(ss.n)}
	ss.span.SetActual(actual)
	ss.span.End(now)
}

// bindStream stores each answer at the output's frame position.
type bindStream struct {
	inner domain.Stream
	f     term.Frame
	pos   int
}

func (b *bindStream) next() (bool, error) {
	v, ok, err := b.inner.Next()
	if err != nil || !ok {
		return false, err
	}
	b.f[b.pos] = v
	return true, nil
}

func (b *bindStream) close() error { return b.inner.Close() }

// membershipStream scans for the wanted value, emits once, and closes the
// source (pruning).
type membershipStream struct {
	inner domain.Stream
	want  term.Value
	done  bool
}

func (m *membershipStream) next() (bool, error) {
	if m.done {
		return false, nil
	}
	for {
		v, ok, err := m.inner.Next()
		if err != nil || !ok {
			m.done = true
			return false, err
		}
		if term.Equal(v, m.want) {
			m.done = true
			m.inner.Close() // prune the rest of the stream
			return true, nil
		}
	}
}

func (m *membershipStream) close() error {
	m.done = true
	return m.inner.Close()
}

// evalAtom evaluates an IDB predicate occurrence through the plan's rules
// for its adornment, concatenating the rules' answers (union, no
// duplicate elimination).
func (b *bodyIter) evalAtom(lc *litCode) (frameStream, error) {
	if b.depth >= maxDepth {
		return nil, fmt.Errorf("engine: recursion deeper than %d evaluating %s", maxDepth, lc.key.Pred)
	}
	in, err := boundArgs(lc, b.f)
	if err != nil {
		return nil, err
	}
	if b.eng.memo != nil {
		if ms, ok := b.eng.newMemoStream(b.ctx, b.rc.c, lc, b.f, in, b.depth); ok {
			return ms, nil
		}
	}
	return b.eng.buildAtomStream(b.ctx, b.rc.c, lc, b.f, in, b.depth), nil
}

// buildAtomStream opens the actual evaluation of an IDB occurrence: a
// parallel union of the alternatives when the scheduler grants lanes, the
// sequential union otherwise. in holds the occurrence's bound argument
// values. It is the memo-free lower half of evalAtom, shared with the
// memo's fill path.
func (e *Engine) buildAtomStream(ctx *domain.Ctx, c *compiler, lc *litCode, f term.Frame, in []term.Value, depth int) frameStream {
	rules, err := c.rules(lc)
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
	lc    *litCode
	rules []*ruleCode
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
			callee, ok := rc.enter(as.in)
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
		if ok, err := as.lc.mapBack(as.f, as.current.rc, as.current.f); ok || err != nil {
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
func (rc *ruleCode) enter(in []term.Value) (term.Frame, bool) {
	f := make(term.Frame, len(rc.vars))
	for i, v := range in {
		if v != nil && !f.Unify(rc.head[i], v) {
			return nil, false
		}
	}
	return f, true
}

// mapBack projects a rule-body solution onto the caller's frame: it
// clears the positions from the level's own on, then unifies each
// argument with its head term's value in the callee frame, so bound
// values and repeated variables filter.
func (lc *litCode) mapBack(f term.Frame, rc *ruleCode, callee term.Frame) (bool, error) {
	clear(f[lc.lo:])
	for i, arg := range lc.args {
		v, err := callee.Eval(rc.head[i])
		if err != nil {
			return false, fmt.Errorf("engine: head term %s of %s unbound after body: %w", rc.head[i].Term, lc.key.Pred, err)
		}
		if !f.Unify(arg, v) {
			return false, nil
		}
	}
	return true, nil
}
