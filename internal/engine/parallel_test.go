package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// unionDomain scripts four sources with distinct latencies for union
// tests.
func unionDomain() *domaintest.Domain {
	d := domaintest.New("d")
	for _, f := range []struct {
		name  string
		delay time.Duration
		vals  []term.Value
	}{
		{"a", 400 * time.Millisecond, []term.Value{term.Int(1), term.Int(2)}},
		{"b", 300 * time.Millisecond, []term.Value{term.Int(3)}},
		{"c", 200 * time.Millisecond, []term.Value{term.Int(4), term.Int(5)}},
		{"e", 100 * time.Millisecond, []term.Value{term.Int(6)}},
	} {
		vals := f.vals
		d.Define(f.name, domaintest.Func{Arity: 0, PerCall: f.delay,
			Fn: func([]term.Value) ([]term.Value, error) { return vals, nil }})
	}
	return d
}

const unionProg = `
	u(X) :- in(X, d:a()).
	u(X) :- in(X, d:b()).
	u(X) :- in(X, d:c()).
	u(X) :- in(X, d:e()).
`

func answerInts(t *testing.T, answers []Answer) []int {
	t.Helper()
	var out []int
	for _, a := range answers {
		n, ok := a.Vals[0].(term.Int)
		if !ok {
			t.Fatalf("answer %v is not an int", a)
		}
		out = append(out, int(n))
	}
	return out
}

func TestParallelUnionSameAnswersFasterClock(t *testing.T) {
	h := newHarness(t, unionDomain())
	plan := h.plan(unionProg, "?- u(X).")

	seq, seqM := h.runAll(plan) // nil Sched: sequential reference

	ctx := domain.NewCtx(vclock.NewVirtual(0))
	ctx.Sched = domain.NewSched(4)
	cur, err := h.eng.ExecutePlan(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	par, parM, err := CollectAll(cur)
	if err != nil {
		t.Fatal(err)
	}

	want := answerInts(t, seq)
	got := answerInts(t, par)
	sort.Ints(want)
	sort.Ints(got)
	if len(got) != len(want) {
		t.Fatalf("parallel answers = %v, want set %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parallel answers = %v, want set %v", got, want)
		}
	}
	// Sequential pays the four per-call delays serially (1s total);
	// parallel overlaps them, so the slowest branch dominates.
	if parM.TAll >= seqM.TAll {
		t.Errorf("parallel TAll = %v, want < sequential %v", parM.TAll, seqM.TAll)
	}
	if parM.TAll > 600*time.Millisecond {
		t.Errorf("parallel TAll = %v, want ~max branch latency (<= 600ms)", parM.TAll)
	}

	// Determinism: the virtual clock makes the merged order reproducible.
	ctx2 := domain.NewCtx(vclock.NewVirtual(0))
	ctx2.Sched = domain.NewSched(4)
	cur2, err := h.eng.ExecutePlan(ctx2, plan)
	if err != nil {
		t.Fatal(err)
	}
	par2, parM2, err := CollectAll(cur2)
	if err != nil {
		t.Fatal(err)
	}
	if parM2.TAll != parM.TAll {
		t.Errorf("second run TAll = %v, want %v (nondeterministic)", parM2.TAll, parM.TAll)
	}
	a1, a2 := answerInts(t, par), answerInts(t, par2)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("second run order %v, want %v (nondeterministic)", a2, a1)
		}
	}
}

func TestIndependentSiblingsPrefetchedOnce(t *testing.T) {
	d := domaintest.New("d")
	for _, f := range []struct {
		name  string
		delay time.Duration
		vals  []term.Value
	}{
		{"one", 300 * time.Millisecond, []term.Value{term.Int(1), term.Int(2)}},
		{"two", 300 * time.Millisecond, []term.Value{term.Int(10), term.Int(20)}},
		{"three", 300 * time.Millisecond, []term.Value{term.Int(100)}},
	} {
		vals := f.vals
		d.Define(f.name, domaintest.Func{Arity: 0, PerCall: f.delay,
			Fn: func([]term.Value) ([]term.Value, error) { return vals, nil }})
	}
	h := newHarness(t, d)
	prog := `q(A, B, C) :- in(A, d:one()) & in(B, d:two()) & in(C, d:three()).`
	plan := h.plan(prog, "?- q(A, B, C).")

	seq, seqM := h.runAll(plan)
	seqCalls := len(d.Calls)

	ctx := domain.NewCtx(vclock.NewVirtual(0))
	ctx.Sched = domain.NewSched(4)
	cur, err := h.eng.ExecutePlan(ctx, plan)
	if err != nil {
		t.Fatal(err)
	}
	par, parM, err := CollectAll(cur)
	if err != nil {
		t.Fatal(err)
	}
	// Spool replay preserves the exact sequential answer order.
	if len(par) != len(seq) {
		t.Fatalf("parallel answers = %d, want %d", len(par), len(seq))
	}
	for i := range seq {
		if par[i].String() != seq[i].String() {
			t.Errorf("answer %d = %v, want %v", i, par[i], seq[i])
		}
	}
	// Each spooled source is called once in total — the replays for the
	// outer bindings reuse the spool instead of re-calling. (The sequential
	// run re-calls the inner literals per outer binding: 1 + 2 + 4 calls.)
	if seqCalls != 7 {
		t.Errorf("sequential run made %d calls, want 7", seqCalls)
	}
	if parCalls := len(d.Calls) - seqCalls; parCalls != 3 {
		t.Errorf("parallel run made %d calls, want 3 (one per spooled source)", parCalls)
	}
	// The three 300ms calls overlap: the parallel pipeline finishes well
	// under the sequential time.
	if parM.TAll >= seqM.TAll {
		t.Errorf("parallel TAll = %v, want < sequential %v", parM.TAll, seqM.TAll)
	}
}

// blocker is a domain whose streams block until the call context is
// cancelled — branches stuck mid-source-call for leak tests.
type blocker struct {
	name    string
	started chan struct{} // one token per stream that began blocking
}

func (b *blocker) Name() string { return b.name }
func (b *blocker) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "fast", Arity: 0}, {Name: "hang", Arity: 0}}
}
func (b *blocker) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	if fn == "fast" {
		return domain.NewSliceStream([]term.Value{term.Int(1)}), nil
	}
	sent := false
	return domain.NewFuncStream(func() (term.Value, bool, error) {
		if !sent {
			sent = true
			select {
			case b.started <- struct{}{}:
			default:
			}
		}
		<-ctx.Context.Done()
		return nil, false, ctx.Context.Err()
	}, func() error { return nil }), nil
}

// expectGoroutines waits for the goroutine count to drop back to the
// baseline (small slack for runtime bookkeeping).
func expectGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines = %d, want <= %d; stacks:\n%s", n, base, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

const blockerUnionProg = `
	u(X) :- in(X, blk:fast()).
	u(X) :- in(X, blk:hang()).
	u(X) :- in(X, blk:hang()).
	u(X) :- in(X, blk:hang()).
`

func TestSessionStopDrainsParallelBranches(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		blk := &blocker{name: "blk", started: make(chan struct{}, 8)}
		h := newHarness(t, blk)
		plan := h.plan(blockerUnionProg, "?- u(X).")

		// Wall clock: the merge is by arrival, so the fast branch's answer
		// comes through while the other branches are still blocked.
		cctx, cancel := context.WithCancel(context.Background())
		ctx := domain.NewCtx(vclock.NewWall())
		ctx.Context, ctx.Sched = cctx, domain.NewSched(4)
		cur, err := h.eng.ExecutePlan(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(cur, 1)
		batch, _, err := sess.More()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != 1 {
			t.Fatalf("first batch = %d answers, want 1", len(batch))
		}
		<-blk.started // at least one branch is blocked mid-call
		if err := sess.Stop(); err != nil {
			t.Fatal(err)
		}
		cancel()
	}
	expectGoroutines(t, base+2)
}

func TestContextCancelDrainsParallelBranches(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		blk := &blocker{name: "blk", started: make(chan struct{}, 8)}
		h := newHarness(t, blk)
		plan := h.plan(blockerUnionProg, "?- u(X).")

		cctx, cancel := context.WithCancel(context.Background())
		ctx := domain.NewCtx(vclock.NewWall())
		ctx.Context, ctx.Sched = cctx, domain.NewSched(4)
		cur, err := h.eng.ExecutePlan(ctx, plan)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			CollectAll(cur)
		}()
		<-blk.started // branches are blocked mid-call
		cancel()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("CollectAll did not return after context cancellation")
		}
		cur.Close()
	}
	expectGoroutines(t, base+2)
}

// unionCase is a union of len(answers) rules, rule i being
// u(X) :- in(X, d:fi()), whose source returns answers[i] distinct values.
type unionCase struct {
	answers   []int
	perCall   []time.Duration
	perAnswer []time.Duration
}

func (c unionCase) build(t *testing.T) (*harness, *domaintest.Domain, *rewrite.Plan) {
	t.Helper()
	d := domaintest.New("d")
	var prog strings.Builder
	for i, n := range c.answers {
		vals := make([]term.Value, n)
		for j := range vals {
			vals[j] = term.Int(1000*i + j)
		}
		d.Define("f"+strconv.Itoa(i), domaintest.Func{Arity: 0, PerCall: c.perCall[i], PerAnswer: c.perAnswer[i],
			Fn: func([]term.Value) ([]term.Value, error) { return vals, nil }})
		fmt.Fprintf(&prog, "u(X) :- in(X, d:f%d()).\n", i)
	}
	h := newHarness(t, d)
	return h, d, h.plan(prog.String(), "?- u(X).")
}

// runLanes executes plan on a fresh virtual clock under a scheduler of
// the given limit. A merge that deadlocks hangs rather than failing, so
// the run is guarded by a timer.
func runLanes(t *testing.T, h *harness, plan *rewrite.Plan, limit int) ([]Answer, Metrics, error) {
	t.Helper()
	type result struct {
		answers []Answer
		m       Metrics
		err     error
	}
	done := make(chan result, 1)
	go func() {
		ctx := domain.NewCtx(vclock.NewVirtual(0))
		ctx.Sched = domain.NewSched(limit)
		cur, err := h.eng.ExecutePlan(ctx, plan)
		if err != nil {
			done <- result{err: err}
			return
		}
		answers, m, err := CollectAll(cur)
		done <- result{answers, m, err}
	}()
	select {
	case r := <-done:
		return r.answers, r.m, r.err
	case <-time.After(10 * time.Second):
		t.Fatalf("Sched(%d): the union did not finish in 10s", limit)
		return nil, Metrics{}, nil
	}
}

// checkLanes runs c sequentially and under every scheduler limit from 1
// to 8 — fewer lanes than rules included — and checks each run returns
// the sequential answer multiset, and that two runs agree on answer order
// and TAll.
func checkLanes(t *testing.T, name string, c unionCase) {
	t.Helper()
	h, _, plan := c.build(t)
	seq, _ := h.runAll(plan)
	want := answerInts(t, seq)
	sort.Ints(want)
	for limit := 1; limit <= 8; limit++ {
		first, m1, err := runLanes(t, h, plan, limit)
		if err != nil {
			t.Fatalf("%s, Sched(%d): %v", name, limit, err)
		}
		second, m2, err := runLanes(t, h, plan, limit)
		if err != nil {
			t.Fatalf("%s, Sched(%d): %v", name, limit, err)
		}
		got1, got2 := answerInts(t, first), answerInts(t, second)
		if !slices.Equal(got1, got2) || m1.TAll != m2.TAll {
			t.Fatalf("%s, Sched(%d): two runs differ: TAll %v vs %v, order %v vs %v", name, limit, m1.TAll, m2.TAll, got1, got2)
		}
		slices.Sort(got1)
		if !slices.Equal(got1, want) {
			t.Fatalf("%s, Sched(%d): answers %v, want the sequential multiset %v", name, limit, got1, want)
		}
	}
}

func TestParallelUnionMergesLanes(t *testing.T) {
	// Two lanes over three rules: lane 0 runs f0 then f2, lane 1 runs f1.
	// f0's 65 answers overflow a queue of unionQueueBound before f2
	// starts.
	checkLanes(t, "65 answers then 3 on one lane", unionCase{
		answers:   []int{65, 100, 3},
		perCall:   []time.Duration{0, 0, 0},
		perAnswer: []time.Duration{0, 0, 0},
	})
	rng := rand.New(rand.NewSource(1))
	for seed := 0; seed < 16; seed++ {
		rules := 2 + rng.Intn(5)
		c := unionCase{}
		for i := 0; i < rules; i++ {
			c.answers = append(c.answers, rng.Intn(201))
			c.perCall = append(c.perCall, time.Duration(rng.Intn(400))*time.Millisecond)
			c.perAnswer = append(c.perAnswer, time.Duration(rng.Intn(4))*time.Millisecond)
		}
		checkLanes(t, fmt.Sprintf("case %d %v", seed, c.answers), c)
	}
}

// TestParallelUnionLaneStopsAtError: a rule that fails ends its lane, so
// the later rule sharing the lane never runs; the error reaches the
// caller and every lane goroutine is joined.
func TestParallelUnionLaneStopsAtError(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		d := domaintest.New("d")
		d.Define("boom", domaintest.Func{Arity: 0, PerCall: 50 * time.Millisecond,
			Fn: func([]term.Value) ([]term.Value, error) { return nil, errors.New("boom") }})
		many := make([]term.Value, 200)
		for j := range many {
			many[j] = term.Int(j)
		}
		d.Define("many", domaintest.Func{Arity: 0, PerCall: 100 * time.Millisecond,
			Fn: func([]term.Value) ([]term.Value, error) { return many, nil }})
		h := newHarness(t, d)
		// Two lanes: lane 0 runs boom then the second many; lane 1 the first.
		plan := h.plan(`
			u(X) :- in(X, d:boom()).
			u(X) :- in(X, d:many()).
			u(X) :- in(X, d:many()).
		`, "?- u(X).")
		if _, _, err := runLanes(t, h, plan, 2); err == nil || !strings.Contains(err.Error(), "boom") {
			t.Fatalf("err = %v, want the failing rule's error", err)
		}
		if n := d.CallCount("many"); n != 1 {
			t.Fatalf("many called %d times, want 1 (lane 0 stops at boom)", n)
		}
	}
	expectGoroutines(t, base+2)
}
