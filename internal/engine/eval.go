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

// substStream is a pull stream of substitutions.
type substStream interface {
	next() (term.Subst, bool, error)
	close() error
}

// emptyStream yields nothing.
type emptyStream struct{}

func (emptyStream) next() (term.Subst, bool, error) { return term.Subst{}, false, nil }
func (emptyStream) close() error                    { return nil }

// singleStream yields one substitution.
type singleStream struct {
	s    term.Subst
	done bool
}

func (s *singleStream) next() (term.Subst, bool, error) {
	if s.done {
		return term.Subst{}, false, nil
	}
	s.done = true
	return s.s, true, nil
}
func (s *singleStream) close() error { return nil }

// bodyIter evaluates a plan rule body by pipelined nested loops with
// backtracking: level i's stream produces the substitutions after
// executing the first i+1 literals.
type bodyIter struct {
	eng   *Engine
	ctx   *domain.Ctx
	plan  *rewrite.Plan
	pr    *rewrite.PlanRule
	base  term.Subst
	depth int

	streams []substStream
	inited  bool
	done    bool

	// indep lists the execution positions of independent in() literals
	// (nil when none, or when the query runs sequentially); stage holds
	// their spool producers once evaluation reaches the first of them.
	indep []int
	stage *stage
}

func (e *Engine) newBodyIter(ctx *domain.Ctx, plan *rewrite.Plan, pr *rewrite.PlanRule, base term.Subst, depth int) *bodyIter {
	b := &bodyIter{eng: e, ctx: ctx, plan: plan, pr: pr, base: base, depth: depth}
	if ctx.Sched.Limit() > 1 {
		b.indep = rewrite.IndependentInCalls(pr, boundVars(base))
	}
	return b
}

// boundVars returns the set of variables s binds.
func boundVars(s term.Subst) map[string]bool {
	bound := make(map[string]bool, s.Len())
	s.Each(func(name string, _ term.Value) { bound[name] = true })
	return bound
}

func (b *bodyIter) next() (term.Subst, bool, error) {
	if b.done {
		return term.Subst{}, false, nil
	}
	n := len(b.pr.Order)
	if n == 0 {
		b.done = true
		return b.base, true, nil
	}
	i := len(b.streams) - 1
	if !b.inited {
		b.inited = true
		s, err := b.openLevel(0, b.base)
		if err != nil {
			b.done = true
			return term.Subst{}, false, err
		}
		b.streams = []substStream{s}
		i = 0
	}
	for {
		if err := b.ctx.Err(); err != nil {
			b.shutdown()
			return term.Subst{}, false, err
		}
		if i < 0 {
			b.shutdown()
			return term.Subst{}, false, nil
		}
		v, ok, err := b.streams[i].next()
		if err != nil {
			b.shutdown()
			return term.Subst{}, false, err
		}
		if !ok {
			b.streams[i].close()
			b.streams = b.streams[:i]
			i--
			continue
		}
		if i == n-1 {
			return v, true, nil
		}
		s, err := b.openLevel(i+1, v)
		if err != nil {
			b.shutdown()
			return term.Subst{}, false, err
		}
		b.streams = append(b.streams, s)
		i++
	}
}

func (b *bodyIter) openLevel(level int, s term.Subst) (substStream, error) {
	bi := b.pr.Order[level]
	if b.indep != nil && level == b.indep[0] && b.stage == nil {
		// First entry into the independent-sibling region: launch the
		// producers that prefetch the later independent literals' streams.
		b.stage = b.eng.newStage(b.ctx, b.pr, b.base, b.indep)
	}
	if b.stage != nil {
		if in, ok := b.pr.Rule.Body[bi].(*lang.InCall); ok {
			if ss, ok := b.stage.open(level, in.Out.Var, s, b.ctx); ok {
				return ss, nil
			}
		}
	}
	return b.eng.evalLiteral(b.ctx, b.plan, b.pr.Rule.Body[bi], b.pr.Routes[bi], s, b.depth)
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

// evalLiteral opens the stream of substitutions extending s that satisfy
// one literal.
func (e *Engine) evalLiteral(ctx *domain.Ctx, plan *rewrite.Plan, lit lang.Literal, route rewrite.Route, s term.Subst, depth int) (substStream, error) {
	switch l := lit.(type) {
	case *lang.Comparison:
		return e.evalComparison(l, s)
	case *lang.InCall:
		return e.evalInCall(ctx, l, route, s)
	case *lang.Atom:
		return e.evalAtom(ctx, plan, l, s, depth)
	}
	return nil, fmt.Errorf("engine: unknown literal %T", lit)
}

// evalComparison filters, or binds for X = ground.
func (e *Engine) evalComparison(c *lang.Comparison, s term.Subst) (substStream, error) {
	lg, rg := s.Ground(c.Left), s.Ground(c.Right)
	if c.Op == term.OpEQ && lg != rg {
		// Binding equality: assign the ground side to the bare-variable
		// side.
		var ground, varSide term.Term
		if lg {
			ground, varSide = c.Left, c.Right
		} else {
			ground, varSide = c.Right, c.Left
		}
		if varSide.IsVar() {
			v, err := s.Eval(ground)
			if err != nil {
				return nil, err
			}
			return &singleStream{s: s.Bind(varSide.Var, v)}, nil
		}
		return nil, fmt.Errorf("engine: comparison %s has unbound non-variable side", c)
	}
	ok, err := c.Holds(s)
	if err != nil {
		return nil, fmt.Errorf("engine: %s: %w", c, err)
	}
	if ok {
		return &singleStream{s: s}, nil
	}
	return emptyStream{}, nil
}

// evalInCall executes a domain call (direct or through the CIM) and binds
// or tests the output term.
func (e *Engine) evalInCall(ctx *domain.Ctx, l *lang.InCall, route rewrite.Route, s term.Subst) (substStream, error) {
	stream, err := e.openCallStream(ctx, l, route, s)
	if err != nil {
		return nil, err
	}
	// Membership test: the output is already ground; find one match then
	// prune (answer sets are sets).
	if s.Ground(l.Out) {
		want, err := s.Eval(l.Out)
		if err != nil {
			stream.Close()
			return nil, err
		}
		return &membershipStream{inner: stream, want: want, s: s}, nil
	}
	if !l.Out.IsVar() {
		stream.Close()
		return nil, fmt.Errorf("engine: in() output %s cannot be bound (attribute path on unbound variable)", l.Out)
	}
	return &bindStream{inner: stream, v: l.Out.Var, s: s}, nil
}

// openCallStream grounds an in() literal's arguments under s and issues
// the domain call (direct or through the CIM), returning the raw answer
// stream metered onto a fresh call span. It is the shared lower half of
// evalInCall and the parallel stage's spool producers.
func (e *Engine) openCallStream(ctx *domain.Ctx, l *lang.InCall, route rewrite.Route, s term.Subst) (domain.Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	args := make([]term.Value, len(l.Call.Args))
	for i, t := range l.Call.Args {
		v, err := s.Eval(t)
		if err != nil {
			return nil, fmt.Errorf("engine: domain call %s argument %d not ground: %w", l.Call.String(), i+1, err)
		}
		args[i] = v
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

// bindStream binds each answer to a fresh variable.
type bindStream struct {
	inner domain.Stream
	v     string
	s     term.Subst
}

func (b *bindStream) next() (term.Subst, bool, error) {
	v, ok, err := b.inner.Next()
	if err != nil || !ok {
		return term.Subst{}, false, err
	}
	return b.s.Bind(b.v, v), true, nil
}

func (b *bindStream) close() error { return b.inner.Close() }

// membershipStream scans for the wanted value, emits once, and closes the
// source (pruning).
type membershipStream struct {
	inner domain.Stream
	want  term.Value
	s     term.Subst
	done  bool
}

func (m *membershipStream) next() (term.Subst, bool, error) {
	if m.done {
		return term.Subst{}, false, nil
	}
	for {
		v, ok, err := m.inner.Next()
		if err != nil {
			m.done = true
			return term.Subst{}, false, err
		}
		if !ok {
			m.done = true
			return term.Subst{}, false, nil
		}
		if term.Equal(v, m.want) {
			m.done = true
			m.inner.Close() // prune the rest of the stream
			return m.s, true, nil
		}
	}
}

func (m *membershipStream) close() error {
	m.done = true
	return m.inner.Close()
}

// evalAtom evaluates an IDB predicate occurrence through the plan's rules
// for its run-time adornment, concatenating the rules' answers (union, no
// duplicate elimination).
func (e *Engine) evalAtom(ctx *domain.Ctx, plan *rewrite.Plan, a *lang.Atom, s term.Subst, depth int) (substStream, error) {
	if depth >= maxDepth {
		return nil, fmt.Errorf("engine: recursion deeper than %d evaluating %s", maxDepth, a.Pred)
	}
	adorn := runtimeAdornment(a, s)
	key := rewrite.PredKey{Pred: a.Pred, Adorn: adorn}
	rules, ok := plan.Rules[key]
	if !ok || len(rules) == 0 {
		return nil, fmt.Errorf("engine: plan has no rules for %s", key)
	}
	if e.memo != nil {
		if ms, ok := e.newMemoStream(ctx, plan, a, s, key, rules, depth); ok {
			return ms, nil
		}
	}
	return e.buildAtomStream(ctx, plan, a, s, rules, depth), nil
}

// buildAtomStream opens the actual evaluation of an IDB occurrence: a
// parallel union of the alternatives when the scheduler grants lanes, the
// sequential union otherwise. It is the memo-free lower half of evalAtom,
// shared with the memo's fill path.
func (e *Engine) buildAtomStream(ctx *domain.Ctx, plan *rewrite.Plan, a *lang.Atom, s term.Subst, rules []*rewrite.PlanRule, depth int) substStream {
	if len(rules) >= 2 {
		if pu := e.newParallelUnion(ctx, plan, a, s, rules, depth); pu != nil {
			return pu
		}
	}
	return &atomStream{eng: e, ctx: ctx, plan: plan, atom: a, s: s, rules: rules, depth: depth}
}

func runtimeAdornment(a *lang.Atom, s term.Subst) rewrite.Adornment {
	b := make([]byte, len(a.Args))
	for i, t := range a.Args {
		if s.Ground(t) {
			b[i] = 'b'
		} else {
			b[i] = 'f'
		}
	}
	return rewrite.Adornment(b)
}

// atomStream unions the plan rules for an atom, mapping head bindings back
// into the caller's substitution.
type atomStream struct {
	eng   *Engine
	ctx   *domain.Ctx
	plan  *rewrite.Plan
	atom  *lang.Atom
	s     term.Subst
	rules []*rewrite.PlanRule
	depth int

	ruleIdx int
	current *bodyIter
	rule    *rewrite.PlanRule
}

func (as *atomStream) next() (term.Subst, bool, error) {
	for {
		if as.current == nil {
			if as.ruleIdx >= len(as.rules) {
				return term.Subst{}, false, nil
			}
			as.rule = as.rules[as.ruleIdx]
			as.ruleIdx++
			headEnv, ok, err := bindHead(as.atom, as.rule.Rule, as.s)
			if err != nil {
				return term.Subst{}, false, err
			}
			if !ok {
				continue // head constants conflict with the call
			}
			as.current = as.eng.newBodyIter(as.ctx, as.plan, as.rule, headEnv, as.depth+1)
		}
		env, ok, err := as.current.next()
		if err != nil {
			return term.Subst{}, false, err
		}
		if !ok {
			as.current.close()
			as.current = nil
			continue
		}
		out, ok, err := mapBack(as.atom, as.rule.Rule, as.s, env)
		if err != nil {
			return term.Subst{}, false, err
		}
		if !ok {
			continue
		}
		return out, true, nil
	}
}

func (as *atomStream) close() error {
	if as.current != nil {
		return as.current.close()
	}
	return nil
}

// bindHead builds the rule-local environment from the atom occurrence: for
// each head position, ground caller arguments flow into head terms
// (unification); unbound caller variables leave the head variable free for
// the body to bind.
func bindHead(a *lang.Atom, r *lang.Rule, s term.Subst) (term.Subst, bool, error) {
	if len(a.Args) != len(r.Head.Args) {
		return term.Subst{}, false, fmt.Errorf("engine: %s called with %d args, rule head has %d", a.Pred, len(a.Args), len(r.Head.Args))
	}
	env := term.Subst{}
	for i, arg := range a.Args {
		h := r.Head.Args[i]
		if !s.Ground(arg) {
			continue
		}
		v, err := s.Eval(arg)
		if err != nil {
			return term.Subst{}, false, err
		}
		var ok bool
		env, ok = env.Unify(h, v)
		if !ok {
			return term.Subst{}, false, nil
		}
	}
	return env, true, nil
}

// mapBack projects a rule-body solution onto the caller's substitution:
// head terms are evaluated in the rule environment and unified with the
// caller's argument terms.
func mapBack(a *lang.Atom, r *lang.Rule, s term.Subst, env term.Subst) (term.Subst, bool, error) {
	out := s
	for i, arg := range a.Args {
		h := r.Head.Args[i]
		v, err := env.Eval(h)
		if err != nil {
			return term.Subst{}, false, fmt.Errorf("engine: head term %s of %s unbound after body: %w", h, a.Pred, err)
		}
		var ok bool
		out, ok = out.Unify(arg, v)
		if !ok {
			return term.Subst{}, false, nil
		}
	}
	return out, true, nil
}
