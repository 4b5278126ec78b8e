package experiments

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/faultinject"
	"hermes/internal/memo"
	"hermes/internal/resilience"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// isSubset reports whether every key of sub appears in super (both sorted).
func isSubset(sub, super []string) bool {
	i := 0
	for _, k := range sub {
		for i < len(super) && super[i] < k {
			i++
		}
		if i >= len(super) || super[i] != k {
			return false
		}
	}
	return true
}

// TestChaosSoak is the acceptance run: the Fig-5 workload with 20%
// injected call failures, truncation, spikes, and two scheduled outage
// windows. Every query must finish within its deadline, every returned
// tuple must be a true answer, the failing site's breaker must trip and
// recover, and degradation must actually have served cached answers.
func TestChaosSoak(t *testing.T) {
	opts := DefaultChaosOptions()
	truth, faulted, err := RunChaos(opts)
	if err != nil {
		t.Fatalf("RunChaos: %v", err)
	}
	t.Logf("\n%s", FormatChaos(truth, faulted))

	if len(truth.Queries) != len(faulted.Queries) {
		t.Fatalf("pass length mismatch: truth %d, faulted %d", len(truth.Queries), len(faulted.Queries))
	}
	// Truth pass must be clean and complete: it defines the full answer
	// sets the soundness check compares against.
	for _, q := range truth.Queries {
		if q.Err != "" {
			t.Fatalf("truth pass query %q failed: %s", q.Query, q.Err)
		}
		if len(q.AnswerKeys) == 0 {
			t.Fatalf("truth pass query %q returned no answers; workload is vacuous", q.Query)
		}
	}

	// Liveness: every faulted query completes, within the deadline.
	for _, q := range faulted.Queries {
		if q.Err != "" {
			t.Errorf("round %d query %q failed instead of degrading: %s", q.Round, q.Query, q.Err)
		}
		if q.TAll > opts.QueryDeadline {
			t.Errorf("round %d query %q took %v, beyond the %v deadline", q.Round, q.Query, q.TAll, opts.QueryDeadline)
		}
	}

	// Soundness: faulted answers are a subset of the fault-free answers.
	degradedQueries := 0
	for i, q := range faulted.Queries {
		full := truth.Queries[i].AnswerKeys
		if !isSubset(q.AnswerKeys, full) {
			t.Errorf("round %d query %q returned tuples outside the true answer set:\n  faulted: %v\n  truth:   %v",
				q.Round, q.Query, q.AnswerKeys, full)
		}
		if len(q.AnswerKeys) < len(full) {
			degradedQueries++
		}
	}

	// The faults must actually have bitten: outages forced cache-degraded
	// serves, and at least one query returned a strict (still sound)
	// subset.
	if faulted.CIM.DegradedServes == 0 {
		t.Errorf("no degraded cache serves recorded; outage windows did not exercise degradation")
	}
	if degradedQueries == 0 {
		t.Errorf("no query returned a partial answer set; outage windows did not bite")
	}
	if len(faulted.FaultLog) == 0 {
		t.Errorf("fault injector recorded no events")
	}

	// Breaker: tripped during the outages, probed, and recovered.
	if faulted.Breaker.Trips == 0 {
		t.Errorf("breaker never tripped despite scheduled outages: %+v", faulted.Breaker)
	}
	if faulted.Breaker.Probes == 0 {
		t.Errorf("breaker never probed half-open: %+v", faulted.Breaker)
	}
	if faulted.BreakerFinal != resilience.StateClosed {
		t.Errorf("breaker did not recover: final state %s, metrics %+v", faulted.BreakerFinal, faulted.Breaker)
	}
	if faulted.Breaker.Rejections == 0 {
		t.Errorf("open breaker never fast-rejected a call: %+v", faulted.Breaker)
	}

	// The truth pass must not have tripped anything.
	if truth.Breaker.Trips != 0 {
		t.Errorf("truth pass tripped the breaker: %+v", truth.Breaker)
	}
}

// TestChaosDeterminism runs the identical chaos configuration twice and
// requires bit-identical fault schedules and answer sets: the injector,
// backoff jitter and netsim are all seeded, so one seed must mean one
// execution.
func TestChaosDeterminism(t *testing.T) {
	opts := DefaultChaosOptions()
	opts.Rounds = 6
	_, run1, err := RunChaos(opts)
	if err != nil {
		t.Fatalf("RunChaos #1: %v", err)
	}
	_, run2, err := RunChaos(opts)
	if err != nil {
		t.Fatalf("RunChaos #2: %v", err)
	}
	if !reflect.DeepEqual(run1.FaultLog, run2.FaultLog) {
		t.Errorf("fault schedules differ across runs with the same seed:\nrun1: %v\nrun2: %v", run1.FaultLog, run2.FaultLog)
	}
	if !reflect.DeepEqual(run1.Windows, run2.Windows) {
		t.Errorf("outage windows differ: %v vs %v", run1.Windows, run2.Windows)
	}
	for i := range run1.Queries {
		q1, q2 := run1.Queries[i], run2.Queries[i]
		if !reflect.DeepEqual(q1.AnswerKeys, q2.AnswerKeys) {
			t.Errorf("query %d (%s) answers differ across same-seed runs:\nrun1: %v\nrun2: %v", i, q1.Query, q1.AnswerKeys, q2.AnswerKeys)
		}
		if q1.TAll != q2.TAll {
			t.Errorf("query %d (%s) timing differs across same-seed runs: %v vs %v", i, q1.Query, q1.TAll, q2.TAll)
		}
		if q1.Err != q2.Err {
			t.Errorf("query %d (%s) error differs: %q vs %q", i, q1.Query, q1.Err, q2.Err)
		}
	}
	if !reflect.DeepEqual(run1.Breaker, run2.Breaker) {
		t.Errorf("breaker metrics differ: %+v vs %+v", run1.Breaker, run2.Breaker)
	}
	if run1.SoakClock != run2.SoakClock {
		t.Errorf("soak clock differs: %v vs %v", run1.SoakClock, run2.SoakClock)
	}
	// A different seed must yield a different fault schedule (the seed is
	// live, not decorative).
	opts2 := opts
	opts2.Seed = opts.Seed + 1
	_, run3, err := RunChaos(opts2)
	if err != nil {
		t.Fatalf("RunChaos #3: %v", err)
	}
	if reflect.DeepEqual(run1.FaultLog, run3.FaultLog) && len(run1.FaultLog) > 0 {
		t.Errorf("different seeds produced identical fault schedules")
	}
}

// TestChaosConcurrentSoak runs the satellite acceptance soak: 8 concurrent
// sessions under 20% injected faults against a 4-lane admission pool. The
// pool must bound the server-wide source concurrency (asserted from the
// observer's gauge), overflow sessions must queue rather than shed, the
// mid-stream Session.Stop path must not leak goroutines, and no query may
// fail — resilience retries and cache degradation absorb the faults.
func TestChaosConcurrentSoak(t *testing.T) {
	base := runtime.NumGoroutine()

	opts := DefaultChaosOptions()
	opts.Rounds = 3
	const (
		sessions    = 8
		maxInflight = 4
	)
	rep, err := RunChaosConcurrent(opts, sessions, maxInflight)
	if err != nil {
		t.Fatalf("RunChaosConcurrent: %v", err)
	}
	for _, e := range rep.Errors {
		t.Error(e)
	}

	// The global in-flight bound held, and the obs gauge agrees with the
	// pool's own accounting.
	if rep.PoolPeak > maxInflight {
		t.Errorf("pool peak %d exceeds the %d-lane bound", rep.PoolPeak, maxInflight)
	}
	if rep.GaugePeak != rep.PoolPeak {
		t.Errorf("gauge peak %d disagrees with pool peak %d", rep.GaugePeak, rep.PoolPeak)
	}
	if rep.GaugePeak == 0 {
		t.Error("gauge peak 0: the soak never held a lane")
	}

	// PolicyWait: the overflow sessions queued, none were shed.
	if rep.Shed != 0 {
		t.Errorf("wait policy shed %d sessions", rep.Shed)
	}
	if rep.Queued != sessions-maxInflight {
		t.Errorf("queued sessions = %d, want the %d-session overflow wave", rep.Queued, sessions-maxInflight)
	}

	// Every session made progress and the Stop path was exercised.
	wantStopped := (sessions / 2) * opts.Rounds
	if rep.Stopped != wantStopped {
		t.Errorf("stopped sessions = %d, want %d", rep.Stopped, wantStopped)
	}
	wantCompleted := sessions*opts.Rounds*2 - wantStopped
	if rep.Completed != wantCompleted {
		t.Errorf("completed queries = %d, want %d", rep.Completed, wantCompleted)
	}
	if rep.FaultEvents == 0 {
		t.Error("fault injector recorded no events; the soak ran fault-free")
	}

	// The memo ran under the soak (the actors query is IDB traffic), and
	// every relation it kept is the one a fault-free mediator memoizes: a
	// fill that read cached-while-down answers stores nothing.
	if rep.MemoStats.Hits+rep.MemoStats.Misses == 0 {
		t.Error("memo saw no probes during the soak")
	}
	if rep.MemoEntries == 0 {
		t.Error("no memo entry survived the soak; the comparison checked nothing")
	}
	if rep.MemoWrongEntries != 0 {
		t.Errorf("%d of %d memo entries differ from the fault-free relation; want 0",
			rep.MemoWrongEntries, rep.MemoEntries)
	}
	t.Logf("memo under chaos: %+v, entries %d (wrong %d)",
		rep.MemoStats, rep.MemoEntries, rep.MemoWrongEntries)

	// No goroutine leaked from abandoned sessions or queued waiters.
	expectGoroutines(t, base+2)
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

// TestChaosMemoDegradedQuarantine forces the full degraded-fill life
// cycle through the engine: a memo fill that ran while the source was
// down (the CIM degrades a partial hit to its cached subset) stores
// nothing, so nothing is served as exact — not during the outage and not
// after recovery — until a sound re-evaluation stores the relation.
func TestChaosMemoDegradedQuarantine(t *testing.T) {
	window := faultinject.Window{From: 30 * time.Second, To: 300 * time.Second}
	mcfg := memo.DefaultConfig()
	tb, err := NewTestbed(TestbedOptions{
		RouteViaCIM:    true,
		WithInvariants: true,
		Seed:           3,
		Faults:         &faultinject.Config{Seed: 3, Windows: []faultinject.Window{window}},
		Core:           core.Options{Memo: &mcfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Prime while the source is up: the narrow range is a cached subset of
	// the query's wider range (subset invariant), video_size an exact hit.
	err = tb.Sys.PrimeCache([]domain.Call{
		avisCall("frames_to_objects", term.Str("rope"), term.Int(30), term.Int(100)),
		avisCall("video_size", term.Str("rope")),
	})
	if err != nil {
		t.Fatalf("prime: %v", err)
	}
	if now := tb.Sys.Clock.Now(); now >= window.From {
		t.Fatalf("priming overran the outage window: clock %s", now)
	}

	run := func() []string {
		plan, err := originalOrderPlan(tb.Sys, "?- query1(0, 159, Object, Size).")
		if err != nil {
			t.Fatal(err)
		}
		answers, _, err := runPlan(tb.Sys, plan)
		if err != nil {
			t.Fatal(err)
		}
		return answerMultiset(answers)
	}

	// First evaluation lands inside the outage: frames_to_objects(0,159)
	// partial-hits the cached [30,100] subset, the actual call fails, and
	// the CIM serves the subset degraded. The memo must store nothing.
	vclock.AdvanceTo(tb.Sys.Clock, window.From+time.Second)
	during := run()
	st := tb.Sys.Memo.Stats()
	if st.Stores != 0 || st.Invalidations != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v; want the one fill dropped as an invalidation and nothing stored", st)
	}
	if n := tb.Sys.Memo.Len(); n != 0 {
		t.Fatalf("memo entries = %d after the outage fill, want 0", n)
	}

	// After recovery the subgoal is re-evaluated against the live source,
	// and the sound fill is stored and widens the answer set.
	vclock.AdvanceTo(tb.Sys.Clock, window.To)
	after := run()
	st = tb.Sys.Memo.Stats()
	if st.Hits != 0 || st.Misses != 2 {
		t.Errorf("recovered query: %d hits, %d misses; want 0 and 2 (it must re-evaluate)", st.Hits, st.Misses)
	}
	entries := tb.Sys.Memo.SnapshotEntries()
	if len(entries) != 1 || st.Stores != 1 {
		t.Fatalf("sound fill not stored: %d entries, stats %+v", len(entries), st)
	}
	if !tb.Sys.Memo.Serveable(entries[0].Key) {
		t.Error("sound fill not serveable")
	}
	if len(after) <= len(during) {
		t.Errorf("recovered answers (%d) not wider than degraded subset (%d)", len(after), len(during))
	}
	if !isSubset(during, after) {
		t.Error("degraded answers are not a subset of the recovered answer set")
	}

	// The next repeat is finally allowed to hit.
	third := run()
	if st = tb.Sys.Memo.Stats(); st.Hits != 1 {
		t.Errorf("post-refill query hits = %d, want 1", st.Hits)
	}
	if !multisetsEqual(third, after) {
		t.Error("memo hit replayed a different answer multiset than the sound evaluation")
	}
}
