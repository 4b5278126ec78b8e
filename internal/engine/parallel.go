package engine

// Parallel operators. The engine's evaluation is a pull-based pipeline
// over a simulated (or wall) clock, so "parallelism" has two components
// that must stay separable:
//
//   - Real concurrency: branches run on their own goroutines, bounded by
//     the per-query scheduler (domain.Sched) threaded through the Ctx.
//   - Time accounting: each branch runs on a clock forked at launch, and
//     emissions carry the fork's reading; the consumer advances its clock
//     to an emission's timestamp before yielding it. On a virtual clock
//     the merge is by smallest timestamp, which makes parallel runs
//     deterministic — same inputs, same interleaving, same metrics. On a
//     wall clock timestamps are real time, arrival order is already
//     meaningful, and the merge is by arrival.
//
// Two operators use this machinery:
//
//   - parallelUnion evaluates the alternative rules of a union predicate
//     concurrently (cheapest-estimated-Tf-first), merging their answers.
//   - stage spools the answer streams of independent sibling in() calls
//     (proved independent by rewrite.IndependentInCalls) on producer
//     goroutines launched when the body first reaches them, and replays
//     the spool for every outer binding — the next binding's source data
//     is prefetched while the current stream drains.
//
// Operators acquire lanes with Sched.TryAcquire, which never blocks:
// under lane starvation (including any nesting depth) evaluation falls
// back to the sequential code path, so there is no deadlock by
// construction. Close/cancel paths cancel a per-operator context and
// wg.Wait for every branch, so no goroutine outlives its operator.

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/rewrite"
	"hermes/internal/spool"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// unionQueueBound caps per-branch buffered emissions; a producer that runs
// far ahead of the merge blocks until the consumer drains.
const unionQueueBound = 64

// parentContext returns the cancellation context to derive branch
// contexts from.
func parentContext(ctx *domain.Ctx) context.Context {
	if ctx.Context != nil {
		return ctx.Context
	}
	return context.Background()
}

// unionItem is one merged emission: a caller-level substitution and the
// producing branch's clock reading when it became available.
type unionItem struct {
	s  term.Subst
	at time.Duration
}

// unionBranch is the merge-side state of one rule alternative.
type unionBranch struct {
	queue []unionItem
	done  bool
	err   error
	endAt time.Duration
}

// headAt returns the timestamp of the branch's next event (an answer, or
// its terminal error). ok=false when the branch has nothing (left).
func (br *unionBranch) headAt() (at time.Duration, ok, isErr bool) {
	if len(br.queue) > 0 {
		return br.queue[0].at, true, false
	}
	if br.done && br.err != nil {
		return br.endAt, true, true
	}
	return 0, false, false
}

// parallelUnion evaluates a union predicate's alternative rules
// concurrently and merges their answers. It implements substStream.
type parallelUnion struct {
	eng  *Engine
	ctx  *domain.Ctx // consumer context
	plan *rewrite.Plan
	atom *lang.Atom
	s    term.Subst
	span *obs.Span

	mu       sync.Mutex
	cond     *sync.Cond
	branches []*unionBranch
	closed   bool

	rules   []*rewrite.PlanRule // launch order (cheapest Tf first)
	depth   int
	ordered bool
	extra   int
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// newParallelUnion tries to set up a parallel union over the rules; it
// returns nil when the scheduler grants no extra lane (the caller then
// uses the sequential atomStream). rules must have length >= 2.
func (e *Engine) newParallelUnion(ctx *domain.Ctx, plan *rewrite.Plan, a *lang.Atom, s term.Subst, rules []*rewrite.PlanRule, depth int) *parallelUnion {
	extra := ctx.Sched.TryAcquire(len(rules) - 1)
	if extra == 0 {
		return nil
	}
	lanes := extra + 1
	ranked := e.rankRules(plan, a, s, rules)
	now := ctx.Clock.Now()
	span := ctx.Span.Child("union "+a.Pred, now)
	span.SetTag("parallel", strconv.Itoa(lanes))
	u := &parallelUnion{
		eng: e, ctx: ctx, plan: plan, atom: a, s: s, span: span,
		rules: ranked, depth: depth,
		ordered: !vclock.IsReal(ctx.Clock),
		extra:   extra,
	}
	u.cond = sync.NewCond(&u.mu)
	gctx, cancel := context.WithCancel(parentContext(ctx))
	u.cancel = cancel
	u.branches = make([]*unionBranch, len(ranked))
	for i := range u.branches {
		u.branches[i] = &unionBranch{}
	}
	// Static round-robin lane assignment: the cheapest alternatives head
	// each lane's work list, so they launch first.
	for lane := 0; lane < lanes; lane++ {
		var idxs []int
		for i := lane; i < len(ranked); i += lanes {
			idxs = append(idxs, i)
		}
		fork := ctx.Fork()
		fork.Context, fork.Span = gctx, span.Lane(lane)
		u.wg.Add(1)
		go u.runLane(fork, idxs)
	}
	return u
}

// rankRules orders the alternatives cheapest-estimated-Tf-first (stable:
// unpriced rules keep their program order, after priced ones).
func (e *Engine) rankRules(plan *rewrite.Plan, a *lang.Atom, s term.Subst, rules []*rewrite.PlanRule) []*rewrite.PlanRule {
	if e.cfg.EstimateRule == nil {
		return rules
	}
	type ranked struct {
		pr *rewrite.PlanRule
		tf time.Duration
	}
	rs := make([]ranked, len(rules))
	for i, pr := range rules {
		rs[i] = ranked{pr: pr, tf: time.Duration(1<<63 - 1)}
		bound := map[string]bool{}
		for j, arg := range a.Args {
			if j < len(pr.Rule.Head.Args) && s.Ground(arg) && pr.Rule.Head.Args[j].IsVar() {
				bound[pr.Rule.Head.Args[j].Var] = true
			}
		}
		if cv, ok := e.cfg.EstimateRule(plan, pr, bound); ok {
			rs[i].tf = cv.TFirst
		}
	}
	sort.SliceStable(rs, func(i, j int) bool { return rs[i].tf < rs[j].tf })
	out := make([]*rewrite.PlanRule, len(rs))
	for i, r := range rs {
		out[i] = r.pr
	}
	return out
}

// runLane evaluates the lane's assigned alternatives sequentially on one
// forked clock.
func (u *parallelUnion) runLane(fork *domain.Ctx, idxs []int) {
	defer u.wg.Done()
	for _, ri := range idxs {
		if !u.runBranch(fork, ri) {
			// Cancelled/closed: mark the lane's remaining branches done so
			// the merge never waits on them.
			u.mu.Lock()
			for _, rest := range idxs {
				if !u.branches[rest].done {
					u.branches[rest].done = true
					u.branches[rest].endAt = fork.Clock.Now()
				}
			}
			u.cond.Broadcast()
			u.mu.Unlock()
			return
		}
	}
}

// runBranch evaluates one alternative to exhaustion, pushing mapped-back
// answers. It returns false when the union was closed or cancelled.
func (u *parallelUnion) runBranch(fork *domain.Ctx, ri int) bool {
	br := u.branches[ri]
	pr := u.rules[ri]
	settle := func(err error) {
		u.mu.Lock()
		br.done = true
		br.err = err
		br.endAt = fork.Clock.Now()
		u.cond.Broadcast()
		u.mu.Unlock()
	}
	headEnv, ok, err := bindHead(u.atom, pr.Rule, u.s)
	if err != nil {
		settle(err)
		return false
	}
	if !ok {
		settle(nil) // head constants conflict with the call: empty branch
		return true
	}
	it := u.eng.newBodyIter(fork, u.plan, pr, headEnv, u.depth+1)
	defer it.close()
	for {
		env, ok, err := it.next()
		if err != nil {
			if fork.Err() != nil {
				settle(nil) // cancellation, not a branch failure
				return false
			}
			settle(err)
			return true
		}
		if !ok {
			settle(nil)
			return true
		}
		out, ok, err := mapBack(u.atom, pr.Rule, u.s, env)
		if err != nil {
			settle(err)
			return true
		}
		if !ok {
			continue
		}
		if !u.push(br, out, fork.Clock.Now()) {
			settle(nil)
			return false
		}
	}
}

// push enqueues an emission, blocking while the branch's queue is full.
// It returns false when the union was closed.
func (u *parallelUnion) push(br *unionBranch, s term.Subst, at time.Duration) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	for len(br.queue) >= unionQueueBound && !u.closed {
		u.cond.Wait()
	}
	if u.closed {
		return false
	}
	br.queue = append(br.queue, unionItem{s: s, at: at})
	u.cond.Broadcast()
	return true
}

// next merges the branches. On a deterministic clock it emits the event
// with the smallest branch timestamp, waiting until every live branch has
// one; on a real-time clock it emits whatever has arrived.
func (u *parallelUnion) next() (term.Subst, bool, error) {
	u.mu.Lock()
	for {
		if u.closed {
			u.mu.Unlock()
			return term.Subst{}, false, nil
		}
		best := -1
		var bestAt time.Duration
		bestErr := false
		ready := true
		anyRunning := false
		for i, br := range u.branches {
			at, ok, isErr := br.headAt()
			if !ok {
				if !br.done {
					anyRunning = true
					if u.ordered {
						ready = false
					}
				}
				continue
			}
			if best < 0 || at < bestAt {
				best, bestAt, bestErr = i, at, isErr
			}
		}
		if u.ordered && !ready {
			u.cond.Wait()
			continue
		}
		if best < 0 {
			if anyRunning {
				u.cond.Wait()
				continue
			}
			// Exhausted: the union completes when its slowest branch does.
			var end time.Duration
			for _, br := range u.branches {
				if br.endAt > end {
					end = br.endAt
				}
			}
			u.mu.Unlock()
			u.teardown()
			vclock.AdvanceTo(u.ctx.Clock, end)
			u.span.End(u.ctx.Clock.Now())
			return term.Subst{}, false, nil
		}
		br := u.branches[best]
		if bestErr {
			err := br.err
			br.err = nil // deliver once
			u.mu.Unlock()
			u.teardown()
			vclock.AdvanceTo(u.ctx.Clock, bestAt)
			u.span.SetTag("error", err.Error())
			u.span.End(u.ctx.Clock.Now())
			return term.Subst{}, false, err
		}
		it := br.queue[0]
		br.queue = br.queue[1:]
		u.cond.Broadcast() // wake producers waiting on a full queue
		u.mu.Unlock()
		vclock.AdvanceTo(u.ctx.Clock, it.at)
		return it.s, true, nil
	}
}

// teardown cancels and joins every branch goroutine and returns the
// operator's lanes to the scheduler. Idempotent.
func (u *parallelUnion) teardown() {
	u.mu.Lock()
	if u.closed {
		u.mu.Unlock()
		return
	}
	u.closed = true
	u.cond.Broadcast()
	u.mu.Unlock()
	u.cancel()
	u.wg.Wait()
	u.ctx.Sched.Release(u.extra)
}

func (u *parallelUnion) close() error {
	u.teardown()
	u.span.End(u.ctx.Clock.Now())
	return nil
}

// stage runs the producers for a body's independent in() literals. It is
// created when the nested-loop evaluation first reaches one of them; from
// then on those levels open replay streams over the spools instead of
// issuing a source call per outer binding. A spool is the materialized,
// replayable answer stream of one independent in() literal, filled eagerly
// by a producer goroutine with each answer's availability time on the
// producer's clock.
type stage struct {
	eng    *Engine
	sched  *domain.Sched
	extra  int
	spools map[int]*spool.Log[term.Value] // execution position -> spool
	cancel context.CancelFunc
	wg     sync.WaitGroup
	closed bool
}

// newStage spools as many of the independent levels as the scheduler
// grants lanes for, beyond the first (which the consumer evaluates
// inline). Returns nil when no extra lane is available.
func (e *Engine) newStage(ctx *domain.Ctx, pr *rewrite.PlanRule, base term.Subst, indep []int) *stage {
	extra := ctx.Sched.TryAcquire(len(indep) - 1)
	if extra == 0 {
		return nil
	}
	gctx, cancel := context.WithCancel(parentContext(ctx))
	st := &stage{
		eng: e, sched: ctx.Sched, extra: extra,
		spools: make(map[int]*spool.Log[term.Value], extra),
		cancel: cancel,
	}
	logs := make([]spool.Log[term.Value], extra) // one allocation for every level's spool
	ctx.Span.SetTag("parallel", strconv.Itoa(extra+1))
	for i := 1; i <= extra; i++ {
		level := indep[i]
		bi := pr.Order[level]
		lit, ok := pr.Rule.Body[bi].(*lang.InCall)
		if !ok {
			continue
		}
		sp := &logs[i-1]
		st.spools[level] = sp
		fork := ctx.Fork()
		fork.Context, fork.Span = gctx, ctx.Span.Lane(i)
		st.wg.Add(1)
		go st.run(fork, lit, pr.Routes[bi], base, sp)
	}
	return st
}

// run is the producer: it issues the literal's source call on its own
// forked clock and drains it eagerly into the spool (prefetch).
func (st *stage) run(fork *domain.Ctx, lit *lang.InCall, route rewrite.Route, base term.Subst, sp *spool.Log[term.Value]) {
	defer st.wg.Done()
	stream, err := st.eng.openCallStream(fork, lit, route, base)
	if err != nil {
		sp.Settle(err, fork.Clock.Now())
		return
	}
	defer stream.Close()
	for {
		if err := fork.Err(); err != nil {
			sp.Settle(err, fork.Clock.Now())
			return
		}
		v, ok, err := stream.Next()
		if err != nil || !ok {
			sp.Settle(err, fork.Clock.Now())
			return
		}
		sp.Push(v, fork.Clock.Now())
	}
}

// open returns a replay stream when the level is spooled.
func (st *stage) open(level int, out string, s term.Subst, ctx *domain.Ctx) (substStream, bool) {
	sp, ok := st.spools[level]
	if !ok {
		return nil, false
	}
	return &replayStream{sp: sp, ctx: ctx, v: out, s: s}, true
}

// close cancels the producers and joins them. Idempotent.
func (st *stage) close() {
	if st.closed {
		return
	}
	st.closed = true
	st.cancel()
	st.wg.Wait()
	st.sched.Release(st.extra)
}

// replayStream binds spool answers into the current substitution. The
// first pass advances the consumer clock to each answer's availability
// time; replays for later outer bindings find the clock already past and
// cost nothing, like a cache hit.
type replayStream struct {
	sp   *spool.Log[term.Value]
	ctx  *domain.Ctx
	v    string
	s    term.Subst
	idx  int
	done bool
}

// next returns the next spooled answer, waiting for the producer when it
// has not arrived yet. A producer failure is delivered after the answers
// that preceded it.
func (r *replayStream) next() (term.Subst, bool, error) {
	if r.done {
		return term.Subst{}, false, nil
	}
	it, st := r.sp.Wait(r.idx, r.ctx.Done())
	switch st {
	case spool.Ready:
		r.idx++
		vclock.AdvanceTo(r.ctx.Clock, it.At)
		return r.s.Bind(r.v, it.V), true, nil
	case spool.Pending:
		r.done = true
		return term.Subst{}, false, r.ctx.Err()
	}
	r.done = true
	endAt, err, _ := r.sp.End()
	vclock.AdvanceTo(r.ctx.Clock, endAt)
	return term.Subst{}, false, err
}

func (r *replayStream) close() error { return nil }
