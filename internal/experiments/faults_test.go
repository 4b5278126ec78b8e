package experiments

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"hermes/internal/admission"
	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/engine"
	"hermes/internal/faultinject"
	"hermes/internal/lang"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/oracle"
	"hermes/internal/resilience"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// faultedTestbed is the Figure 5 federation with 20 % injected call
// errors, 10 % truncation and 5 % latency spikes on the AVIS source, a
// retrying policy whose breaker trips after three straight failures, a
// 90 s query deadline, and a cache primed with a narrow frame range and
// a cast range the subset invariants can degrade to.
func faultedTestbed(t *testing.T, seed uint64, windows []faultinject.Window, opts core.Options) (*Testbed, *faultinject.Injector) {
	t.Helper()
	opts.QueryDeadline = 90 * time.Second
	opts.Resilience = &resilience.Policy{MaxAttempts: 3, BackoffBase: 80 * time.Millisecond, BackoffCap: 800 * time.Millisecond,
		Seed: seed, Breaker: resilience.BreakerConfig{FailureThreshold: 3, OpenTimeout: 5 * time.Second, HalfOpenSuccesses: 1}}
	tb, err := NewTestbed(TestbedOptions{WithInvariants: true, RouteViaCIM: true, Seed: seed, Core: opts,
		Faults: &faultinject.Config{Seed: seed, ErrorRate: 0.2, FailLatency: 60 * time.Millisecond, TruncateRate: 0.1,
			SpikeRate: 0.05, SpikeLatency: 2 * time.Second, Windows: windows}})
	if err == nil {
		err = tb.Sys.PrimeCache([]domain.Call{
			avisCall("frames_to_objects", term.Str("rope"), term.Int(30), term.Int(100)),
			avisCall("actors_in_range", term.Str("rope"), term.Int(30), term.Int(130)),
		})
	}
	if err != nil {
		t.Fatal(err)
	}
	w, _ := tb.Sys.Resilience("avis")
	return tb, w.Inner().(*faultinject.Injector)
}

// faultWorkload repeats the cast query and a drifting frame range that
// contains the primed one.
func faultWorkload(rounds int) []string {
	var qs []string
	for r := 0; r < rounds; r++ {
		qs = append(qs, "?- actors(Actor).",
			fmt.Sprintf("?- in(Object, avis:frames_to_objects('rope', %d, %d)).", (r*3)%30, 110+(r*7)%50))
	}
	return qs
}

// TestChaosDeterminism runs one faulted workload, outage window included,
// twice: one seed must be one execution (fault schedule, answers, timings,
// errors, breaker metrics and end clock), and another seed another fault
// schedule.
func TestChaosDeterminism(t *testing.T) {
	run := func(seed uint64) (faults, outcome []string) {
		tb, inj := faultedTestbed(t, seed, []faultinject.Window{{From: 20 * time.Second, To: 40 * time.Second}}, core.Options{})
		for _, q := range faultWorkload(6) {
			plan, err := originalOrderPlan(tb.Sys, q)
			if err != nil {
				t.Fatal(err)
			}
			answers, m, err := runPlan(tb.Sys, plan)
			outcome = append(outcome, fmt.Sprint(q, rows(answers), m.TAll, err))
		}
		w, _ := tb.Sys.Resilience("avis")
		return inj.EventLog(), append(outcome, fmt.Sprintf("%+v at %v", w.Breaker().Metrics(), tb.Sys.Clock.Now()))
	}
	faults1, out1 := run(11)
	faults2, out2 := run(11)
	if len(faults1) == 0 {
		t.Fatal("fault injector recorded no events")
	}
	if !reflect.DeepEqual(faults1, faults2) {
		t.Errorf("fault schedules differ across runs with the same seed:\n%v\n%v", faults1, faults2)
	}
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Errorf("same-seed runs differ:\n%s\n%s", out1[i], out2[i])
		}
	}
	if faults3, _ := run(12); reflect.DeepEqual(faults1, faults3) {
		t.Error("different seeds produced identical fault schedules")
	}
}

// TestChaosConcurrentSoak runs 8 sessions, memo on, under the injected
// faults against a 4-lane admission pool. The overflow sessions queue
// rather than shed; the pool and its gauge stay within the bound and
// drain; every second session stops its range queries mid-stream without
// leaking goroutines; every answer is a sub-multiset of the oracle's; and
// once the faults stop, replaying the workload equals the oracle, so no
// wrong memo or cache entry survived the soak.
func TestChaosConcurrentSoak(t *testing.T) {
	base := runtime.NumGoroutine()
	const sessions, lanes = 8, 4
	o := obs.NewObserver()
	mcfg := memo.DefaultConfig()
	tb, inj := faultedTestbed(t, 11, nil, core.Options{Parallelism: 4, MaxInflightCalls: lanes,
		ShedPolicy: admission.PolicyWait, Obs: o, Memo: &mcfg})
	prog, err := lang.ParseProgram(mediatorProgram)
	if err != nil {
		t.Fatal(err)
	}
	queries := faultWorkload(3)
	plans := make([]*rewrite.Plan, len(queries))
	truth := make([][][]term.Value, len(queries))
	for i, q := range queries {
		pq, err := lang.ParseQuery(q)
		if err == nil {
			truth[i], err = oracle.Eval(prog, pq, tb.AVIS, tb.Rel)
		}
		if err == nil {
			plans[i], err = originalOrderPlan(tb.Sys, q)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	errs := make([]error, sessions)
	var wg sync.WaitGroup
	session := func(i int, ctx *domain.Ctx, release func()) {
		defer wg.Done()
		defer release()
		for qi, plan := range plans {
			cur, err := tb.Sys.ExecuteCtx(ctx, plan)
			if err == nil && i%2 == 1 && qi%2 == 1 {
				sess := engine.NewSession(cur, 1)
				if _, _, err = sess.More(); err == nil {
					err = sess.Stop()
				}
			} else if err == nil {
				var answers []engine.Answer
				answers, _, err = engine.CollectAll(cur)
				if got := rows(answers); err == nil && (len(got) == 0 || !oracle.Sub(got, truth[qi])) {
					err = fmt.Errorf("%v is not a nonempty sub-multiset of the oracle's %v", got, truth[qi])
				}
			}
			if err != nil {
				errs[i] = fmt.Errorf("session %d %s: %w", i, queries[qi], err)
				return
			}
		}
	}
	// The first wave holds every lane while the overflow queues, so the
	// pool is contended for certain.
	type admitted struct {
		ctx     *domain.Ctx
		release func()
	}
	var first []admitted
	for i := 0; i < lanes; i++ {
		ctx, release, err := tb.Sys.AdmitCtx(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, admitted{ctx, release})
	}
	for i := lanes; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			ctx, release, err := tb.Sys.AdmitCtx(context.Background(), 1)
			if err != nil {
				errs[i] = err
				wg.Done()
				return
			}
			session(i, ctx, release)
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); tb.Sys.Admission.Stats().Waiting != sessions-lanes; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("overflow sessions never queued: %+v", tb.Sys.Admission.Stats())
		}
	}
	for i, s := range first {
		wg.Add(1)
		go session(i, s.ctx, s.release)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	st := tb.Sys.Admission.Stats()
	if gauge := int(o.Gauge("hermes_admission_peak_lanes").Value()); st.Peak > lanes || gauge != st.Peak || gauge == 0 {
		t.Errorf("pool peak %d, gauge peak %d; want equal, nonzero and at most %d", st.Peak, gauge, lanes)
	}
	if st.Shed != 0 || st.Queued != sessions-lanes || st.Occupancy != 0 || st.Waiting != 0 {
		t.Errorf("pool %+v; want %d queued, none shed, drained", st, sessions-lanes)
	}
	if len(inj.EventLog()) == 0 {
		t.Error("fault injector recorded no events; the soak ran fault-free")
	}
	if ms := tb.Sys.Memo.Stats(); ms.Hits+ms.Misses == 0 || tb.Sys.Memo.Len() == 0 {
		t.Errorf("memo stats %+v with %d entries; the soak never exercised it", ms, tb.Sys.Memo.Len())
	}

	// The faults stop: a wrong resident entry shows up when it is hit.
	tb.Sys.Register(inj.Inner())
	for i, plan := range plans {
		answers, _, err := runPlan(tb.Sys, plan)
		if got := rows(answers); err != nil || !oracle.Equal(got, truth[i]) {
			t.Errorf("replay %s: %v (%v), oracle %v", queries[i], got, err, truth[i])
		}
	}

	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base+2; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines = %d, want <= %d", runtime.NumGoroutine(), base+2)
		}
	}
}
