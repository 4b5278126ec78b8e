package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hermes/internal/cim"
	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/engine"
	"hermes/internal/faultinject"
	"hermes/internal/lang"
	"hermes/internal/netsim"
	"hermes/internal/oracle"
	"hermes/internal/resilience"
	"hermes/internal/term"
	"hermes/internal/vclock"
	"hermes/internal/workload"
)

// TestFederationStress runs a batch of random queries over a randomized
// federation through the full stack — rewriter, estimator, CIM, engine —
// asserting nothing errors and every answer multiset is the reference
// evaluator's, on a first pass, on a fresh replay and on a warm rerun.
func TestFederationStress(t *testing.T) {
	const program = `
		objs(V, F, L, O) :- in(O, avis:frames_to_objects(V, F, L)).
		row(T, K, V) :- in(P, rel:all(T)), =(P.k, K), =(P.v, V).
		big(T, K, V) :- in(P, rel:select_gt(T, 'v', 500)), =(P.k, K), =(P.v, V).
		% Containment invariant for the video ranges.
		F1 <= G1 & G2 <= F2 => avis:frames_to_objects(V, F1, F2) >= avis:frames_to_objects(V, G1, G2).
	`
	buildSys := func() *System {
		store, rel := workload.Federation(workload.DefaultFederation())
		sys := NewSystem(Options{})
		sys.Register(netsim.Wrap(store, netsim.USAEast))
		sys.Register(rel)
		if err := sys.LoadProgram(program); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	queries := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		var out []string
		for i := 0; i < 40; i++ {
			switch rng.Intn(3) {
			case 0:
				v := fmt.Sprintf("video%02d", rng.Intn(4))
				f := rng.Intn(150)
				out = append(out, fmt.Sprintf("?- objs('%s', %d, %d, O).", v, f, f+10+rng.Intn(80)))
			case 1:
				tbl := fmt.Sprintf("table%02d", rng.Intn(3))
				out = append(out, fmt.Sprintf("?- row('%s', K, V) & V > %d.", tbl, rng.Intn(900)))
			default:
				tbl := fmt.Sprintf("table%02d", rng.Intn(3))
				out = append(out, fmt.Sprintf("?- big('%s', K, V).", tbl))
			}
		}
		return out
	}

	store, rel := workload.Federation(workload.DefaultFederation())
	var want [][][]term.Value
	for _, q := range queries(5) {
		want = append(want, oracleRows(t, program, q, store, rel))
	}
	run := func(pass string, sys *System) {
		for i, q := range queries(5) {
			answers, metrics, err := sys.QueryAll(q)
			if err != nil {
				t.Fatalf("%s: query %s: %v", pass, q, err)
			}
			if !metrics.Complete {
				t.Fatalf("%s: query %s: incomplete metrics", pass, q)
			}
			if !oracle.Equal(rowsOf(answers), want[i]) {
				t.Fatalf("%s: query %s: %d answers, the oracle's %d, or a different multiset", pass, q, len(answers), len(want[i]))
			}
		}
	}

	sys1 := buildSys()
	run("first pass", sys1)
	// A fresh system, and a second pass on the warm one (cache
	// consistency), answer the same; the cache must have been exercised.
	run("fresh replay", buildSys())
	run("warm rerun", sys1)
	st := sys1.CIM.Stats()
	if st.ExactHits+st.PartialHits == 0 {
		t.Errorf("stress run never hit the cache: %+v", st)
	}
	// Statistics accumulated for the optimizer.
	if sys1.DCSM.Storage().RawRecords == 0 {
		t.Error("no statistics recorded")
	}
}

// TestInteractiveStress: pulling small batches and closing early across
// many queries never errors or leaks inconsistent state.
func TestInteractiveStress(t *testing.T) {
	store, rel := workload.Federation(workload.DefaultFederation())
	sys := NewSystem(Options{})
	sys.Register(netsim.Wrap(store, netsim.USAEast))
	sys.Register(rel)
	if err := sys.LoadProgram(`
		objs(V, F, L, O) :- in(O, avis:frames_to_objects(V, F, L)).
	`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 30; i++ {
		v := fmt.Sprintf("video%02d", rng.Intn(4))
		f := rng.Intn(100)
		q := fmt.Sprintf("?- objs('%s', %d, %d, O).", v, f, f+40)
		plan, _, err := sys.Optimize(q, true)
		if err != nil {
			t.Fatal(err)
		}
		cur, err := sys.Execute(plan)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.CollectFirst(cur, 1+rng.Intn(4)); err != nil {
			t.Fatalf("query %s: %v", q, err)
		}
	}
	// Incomplete cached entries must never be served as complete.
	st := sys.CIM.Stats()
	if st.StoredEntries == 0 {
		t.Error("interactive runs stored nothing")
	}
}

// TestConcurrentResilienceStress hammers the shared mutable state from
// many goroutines at once — CIM insert/lookup/degrade, DCSM record and
// estimate, resilience breaker trips, half-open probes and recoveries,
// fault-injector bookkeeping — and lets the race detector (go test -race)
// referee. Semantic checks are limited to soundness invariants that hold
// under any interleaving.
func TestConcurrentResilienceStress(t *testing.T) {
	store, _ := workload.Federation(workload.DefaultFederation())
	inj := faultinject.Wrap(store, faultinject.Config{
		Seed:         21,
		ErrorRate:    0.30,
		TruncateRate: 0.20,
		FailLatency:  time.Millisecond,
	})
	pol := resilience.Policy{
		MaxAttempts: 2,
		BackoffBase: time.Millisecond,
		BackoffCap:  4 * time.Millisecond,
		Seed:        7,
		// A low threshold and short open timeout keep the breaker cycling
		// through trips, probes and recoveries for the whole run.
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, OpenTimeout: 20 * time.Millisecond},
	}
	wrapper := resilience.Wrap(inj, pol)
	reg := domain.NewRegistry()
	reg.Register(wrapper)

	sharedClk := vclock.NewVirtual(0)
	db := dcsm.New(dcsm.DefaultConfig(), sharedClk.Now)
	m := cim.New(reg, cim.Config{ParallelActual: true})
	m.SetMeasurementObserver(db.Observe)
	inv, err := lang.ParseInvariant(
		"F1 <= G1 & G2 <= F2 => avis:frames_to_objects(V, F1, F2) >= avis:frames_to_objects(V, G1, G2).")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(inv); err != nil {
		t.Fatal(err)
	}

	const workers = 8
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			call := func(ctx *domain.Ctx, i int) error {
				// A small call space, so concurrent workers repeat and
				// contain each other's ranges: exact and partial hits race
				// with inserts.
				f := rng.Intn(6) * 10
				l := f + 20 + rng.Intn(3)*10
				c := domain.Call{Domain: "avis", Function: "frames_to_objects",
					Args: []term.Value{term.Str(fmt.Sprintf("video%02d", rng.Intn(4))),
						term.Int(int64(f)), term.Int(int64(l))}}
				resp, err := m.CallThrough(ctx, c)
				if err != nil {
					// Unavailable with an empty cache is legitimate; anything
					// else is a bug.
					if !domain.IsRetryable(err) {
						return fmt.Errorf("worker %d call %s: %v", g, c, err)
					}
					return nil
				}
				vals, err := domain.Collect(resp.Stream)
				if err != nil && !domain.IsRetryable(err) {
					return fmt.Errorf("worker %d drain %s: %v", g, c, err)
				}
				// No interleaving may produce duplicate answers in one
				// response.
				seen := map[string]bool{}
				for _, v := range vals {
					k := v.Key()
					if seen[k] {
						return fmt.Errorf("worker %d call %s: duplicate answer %s", g, c, k)
					}
					seen[k] = true
				}
				// Concurrent DCSM estimates and breaker reads while others
				// write.
				if i%3 == 0 {
					db.Cost(domain.PatternOf(c))
					wrapper.Breaker().State(ctx.Clock.Now())
					wrapper.Metrics()
				}
				return nil
			}
			for i := 0; i < iters; i++ {
				// Each call runs on a fork of the shared clock, joined back
				// after it, as an admitted session's does, so the breaker's
				// open timeout elapses for every worker. A call the open
				// breaker rejects costs no time: on clocks of their own, a
				// breaker that opens ahead of every worker's clock would
				// reject every call left in the run.
				clk := sharedClk.Fork()
				err := call(domain.NewCtx(clk), i)
				sharedClk.Join(clk)
				sharedClk.Sleep(time.Millisecond)
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// The run must actually have exercised the interesting machinery.
	bm := wrapper.Breaker().Metrics()
	if bm.Trips == 0 {
		t.Errorf("breaker never tripped under 30%% failures: %+v", bm)
	}
	st := m.Stats()
	if st.StoredEntries == 0 || st.ExactHits+st.PartialHits == 0 {
		t.Errorf("cache not exercised: %+v", st)
	}
	if db.Storage().RawRecords == 0 {
		t.Error("no statistics recorded under concurrency")
	}
	if len(inj.Events()) == 0 {
		t.Error("no faults injected")
	}
}
