package engine

// Parallel operators. The engine's evaluation is a pull-based pipeline
// over a simulated (or wall) clock, so "parallelism" has two components
// that must stay separable:
//
//   - Real concurrency: lanes run on their own goroutines, bounded by
//     the per-query scheduler (domain.Sched) threaded through the Ctx.
//   - Time accounting: each lane runs on a clock forked at launch, and
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
//     on n lanes: lane i runs rules i, i+n, i+2n, … in program order into
//     one queue, and the merge takes the smallest head among the lanes.
//     Rules launch in program order, exactly as in the sequential
//     atomStream. Nothing prices them at run time: the rule cost
//     estimator priced the plan once, before execution.
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
// wg.Wait for every lane, so no goroutine outlives its operator.

import (
	"context"
	"slices"
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

// unionQueueBound caps each lane's buffered emissions; a lane that runs
// far ahead of the merge blocks until the consumer drains. A full queue
// never stalls the ordered merge: the merge waits only on a live lane
// with no head, and a lane blocked on a full queue has one. A queue per
// rule would stall it: a rule its lane has not started has no head while
// the lane blocks on an earlier rule's full queue.
const unionQueueBound = 64

// parentContext returns the cancellation context to derive lane
// contexts from.
func parentContext(ctx *domain.Ctx) context.Context {
	if ctx.Context != nil {
		return ctx.Context
	}
	return context.Background()
}

// unionItem is one merged emission: the values of the caller positions
// the occurrence binds, and the producing lane's clock reading when it
// became available.
type unionItem struct {
	vals []term.Value
	at   time.Duration
}

// unionLane is the merge-side state of one lane. Its timestamps never
// decrease: the lane runs its rules one after another on one clock.
type unionLane struct {
	queue []unionItem
	done  bool
	err   error
	endAt time.Duration
}

// headAt returns the timestamp of the lane's next event (an answer, or
// its terminal error). ok=false when the lane has nothing (left).
func (ln *unionLane) headAt() (at time.Duration, ok, isErr bool) {
	if len(ln.queue) > 0 {
		return ln.queue[0].at, true, false
	}
	if ln.done && ln.err != nil {
		return ln.endAt, true, true
	}
	return 0, false, false
}

// parallelUnion evaluates a union predicate's alternative rules on
// concurrent lanes and merges their answers. It implements frameStream.
// Lanes never touch the consumer's frame f: each maps its solutions back
// into its own copy of base and pushes a copy of the positions [lo, hi)
// they fill.
type parallelUnion struct {
	occurrence            // its ctx is the consumer's
	base       term.Frame // the caller's frame when the union opened
	span       *obs.Span

	mu     sync.Mutex
	cond   *sync.Cond
	lanes  []unionLane
	closed bool

	ordered bool
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// AppendTo names the union's span: "union " and the predicate.
func (u *parallelUnion) AppendTo(dst []byte) []byte {
	return append(append(dst, "union "...), u.lc.Key.Pred...)
}

// newParallelUnion tries to set up a parallel union over the
// occurrence's rules; it returns nil when the scheduler grants no extra
// lane (the caller then uses the sequential atomStream). There must be at
// least two rules.
func newParallelUnion(o occurrence) *parallelUnion {
	extra := o.ctx.Sched.TryAcquire(len(o.rules) - 1)
	if extra == 0 {
		return nil
	}
	u := &parallelUnion{
		occurrence: o, base: slices.Clone(o.f),
		lanes: make([]unionLane, extra+1), ordered: !vclock.IsReal(o.ctx.Clock),
	}
	span := o.ctx.Span.Child("", o.ctx.Clock.Now())
	span.SetName(u)
	span.SetTagInt("parallel", extra+1)
	u.span = span
	u.cond = sync.NewCond(&u.mu)
	gctx, cancel := context.WithCancel(parentContext(o.ctx))
	u.cancel = cancel
	for i := range u.lanes {
		fork := o.ctx.Fork()
		fork.Context, fork.Span = gctx, span.Lane(i)
		u.wg.Add(1)
		go u.runLane(fork, &u.lanes[i], i)
	}
	return u
}

// runLane evaluates rules i, i+n, i+2n, … of the n lanes' union in
// program order on one forked clock, then settles the lane once: at its
// first error, when the union is closed or cancelled, or after its last
// rule.
func (u *parallelUnion) runLane(fork *domain.Ctx, ln *unionLane, i int) {
	defer u.wg.Done()
	var err error
	f := slices.Clone(u.base)
	for ri := i; ri < len(u.rules); ri += len(u.lanes) {
		var more bool
		if more, err = u.runRule(fork, ln, u.rules[ri], f); !more {
			break
		}
	}
	u.mu.Lock()
	ln.done, ln.err, ln.endAt = true, err, fork.Clock.Now()
	u.cond.Broadcast()
	u.mu.Unlock()
}

// runRule evaluates one alternative to exhaustion, mapping answers back
// into the lane's frame f and pushing them into the lane's queue. more is
// false when the lane must stop: at an error, or when the union was closed
// or cancelled (err nil).
func (u *parallelUnion) runRule(fork *domain.Ctx, ln *unionLane, rc *rewrite.RuleCode, f term.Frame) (more bool, err error) {
	callee, ok := enter(rc, u.in)
	if !ok {
		return true, nil // head constants conflict with the call: no answers
	}
	it := &bodyIter{eng: u.eng, ctx: fork, rc: rc, f: callee, depth: u.depth + 1}
	defer it.close()
	for {
		ok, err := it.next()
		if err != nil {
			if fork.Err() != nil {
				return false, nil // cancellation, not a rule failure
			}
			return false, err
		}
		if !ok {
			return true, nil
		}
		ok, err = mapBack(u.lc, f, rc, callee)
		if err != nil {
			return false, err
		}
		if ok && !u.push(ln, slices.Clone(f[u.lc.Lo:u.lc.Hi]), fork.Clock.Now()) {
			return false, nil
		}
	}
}

// push enqueues an emission, blocking while the lane's queue is full.
// It returns false when the union was closed.
func (u *parallelUnion) push(ln *unionLane, vals []term.Value, at time.Duration) bool {
	u.mu.Lock()
	defer u.mu.Unlock()
	for len(ln.queue) >= unionQueueBound && !u.closed {
		u.cond.Wait()
	}
	if u.closed {
		return false
	}
	ln.queue = append(ln.queue, unionItem{vals: vals, at: at})
	u.cond.Broadcast()
	return true
}

// next merges the lanes. On a deterministic clock it emits the event
// with the smallest lane timestamp (ties to the lower lane), waiting until
// every live lane has one; on a real-time clock it emits whatever has
// arrived.
func (u *parallelUnion) next() (bool, error) {
	u.mu.Lock()
	for {
		if u.closed {
			u.mu.Unlock()
			return false, nil
		}
		best := -1
		var bestAt time.Duration
		bestErr := false
		ready := true
		anyRunning := false
		for i := range u.lanes {
			at, ok, isErr := u.lanes[i].headAt()
			if !ok {
				if !u.lanes[i].done {
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
			// Exhausted: the union completes when its slowest lane does.
			var end time.Duration
			for _, ln := range u.lanes {
				if ln.endAt > end {
					end = ln.endAt
				}
			}
			u.mu.Unlock()
			u.teardown()
			vclock.AdvanceTo(u.ctx.Clock, end)
			u.span.End(u.ctx.Clock.Now())
			return false, nil
		}
		ln := &u.lanes[best]
		if bestErr {
			err := ln.err
			ln.err = nil // deliver once
			u.mu.Unlock()
			u.teardown()
			vclock.AdvanceTo(u.ctx.Clock, bestAt)
			u.span.SetTag("error", err.Error())
			u.span.End(u.ctx.Clock.Now())
			return false, err
		}
		it := ln.queue[0]
		ln.queue = ln.queue[1:]
		u.cond.Broadcast() // wake a lane waiting on a full queue
		u.mu.Unlock()
		vclock.AdvanceTo(u.ctx.Clock, it.at)
		copy(u.f[u.lc.Lo:], it.vals)
		return true, nil
	}
}

// teardown cancels and joins every lane goroutine and returns the
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
	u.ctx.Sched.Release(len(u.lanes) - 1)
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

// newStage spools as many of the rule's independent levels as the
// scheduler grants lanes for, beyond the first (which the consumer
// evaluates inline). Each producer's call arguments are evaluated from f
// before it launches. Returns nil when no extra lane is available.
func (e *Engine) newStage(ctx *domain.Ctx, rc *rewrite.RuleCode, f term.Frame) *stage {
	extra := ctx.Sched.TryAcquire(len(rc.Indep) - 1)
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
	ctx.Span.SetTagInt("parallel", extra+1)
	for i := 1; i <= extra; i++ {
		level := rc.Indep[i]
		lc := &rc.Lits[level]
		sp := &logs[i-1]
		st.spools[level] = sp
		args, err := f.EvalAll(lc.Args[1:])
		fork := ctx.Fork()
		fork.Context, fork.Span = gctx, ctx.Span.Lane(i)
		st.wg.Add(1)
		go st.run(fork, lc, args, err, sp)
	}
	return st
}

// run is the producer: it issues the literal's source call on its own
// forked clock and drains it eagerly into the spool (prefetch).
func (st *stage) run(fork *domain.Ctx, lc *rewrite.LitCode, args []term.Value, err error, sp *spool.Log[term.Value]) {
	defer st.wg.Done()
	var cs *callStream
	if err == nil {
		cs, err = st.eng.openCallStream(fork, lc.Lit.(*lang.InCall), lc.Route, args)
	}
	if err != nil {
		sp.Settle(err, fork.Clock.Now())
		return
	}
	defer cs.close()
	for {
		if err := fork.Err(); err != nil {
			sp.Settle(err, fork.Clock.Now())
			return
		}
		v, ok, err := cs.pull()
		if err != nil || !ok {
			sp.Settle(err, fork.Clock.Now())
			return
		}
		sp.Push(v, fork.Clock.Now())
	}
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

// replayStream stores spool answers at the output's frame position. The
// first pass advances the consumer clock to each answer's availability
// time; replays for later outer bindings find the clock already past and
// cost nothing, like a cache hit.
type replayStream struct {
	sp   *spool.Log[term.Value]
	ctx  *domain.Ctx
	f    term.Frame
	pos  int
	idx  int
	done bool
}

// next returns the next spooled answer, waiting for the producer when it
// has not arrived yet. A producer failure is delivered after the answers
// that preceded it.
func (r *replayStream) next() (bool, error) {
	if r.done {
		return false, nil
	}
	it, st := r.sp.Wait(r.idx, r.ctx.Done())
	switch st {
	case spool.Ready:
		r.idx++
		vclock.AdvanceTo(r.ctx.Clock, it.At)
		r.f[r.pos] = it.V
		return true, nil
	case spool.Pending:
		r.done = true
		return false, r.ctx.Err()
	}
	r.done = true
	endAt, err, _ := r.sp.End()
	vclock.AdvanceTo(r.ctx.Clock, endAt)
	return false, err
}

func (r *replayStream) close() error { return nil }
