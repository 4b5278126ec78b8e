package memo

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

func fillKey(i int) string {
	return KeyOf(1, fmt.Sprintf("p%d", i), "f", []KeyArg{{Var: "X"}})
}

// commitEntry drives a full leader fill through the public API.
func commitEntry(t *testing.T, c *Cache, key string, tuples [][]term.Value, inputs []string, degraded bool, cost time.Duration) {
	t.Helper()
	res := c.Probe(key)
	if res.Rec == nil {
		t.Fatalf("Probe(%q) did not make us the fill leader: %+v", key, res)
	}
	for _, in := range inputs {
		res.Rec.Note(in, degraded)
	}
	for i, tu := range tuples {
		res.Rec.Add(tu, time.Duration(i)*time.Millisecond)
	}
	res.Rec.Commit(cost, domain.CostVector{TAll: cost, Card: float64(len(tuples))})
}

func TestStoreAndHit(t *testing.T) {
	c := New(DefaultConfig())
	key := fillKey(0)
	tuples := [][]term.Value{{term.Str("a")}, {term.Str("b")}, {term.Str("a")}}
	commitEntry(t, c, key, tuples, []string{"d:f(s\"x\")"}, false, 120*time.Millisecond)

	res := c.Probe(key)
	if res.Entry == nil {
		t.Fatalf("expected hit after commit, got %+v", res)
	}
	if len(res.Entry.Tuples) != 3 {
		t.Fatalf("entry has %d tuples, want 3 (multiplicity must be preserved)", len(res.Entry.Tuples))
	}
	st := c.Stats()
	if st.Hits != 1 || st.Stores != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 store, 1 miss", st)
	}
	if st.Saved != 120*time.Millisecond {
		t.Errorf("saved = %v, want 120ms", st.Saved)
	}
	if c.Len() != 1 || c.Bytes() == 0 {
		t.Errorf("Len=%d Bytes=%d, want 1 entry with nonzero bytes", c.Len(), c.Bytes())
	}
	// The second leader-probe above (none) must not have created a flight.
	c.flightMu.Lock()
	n := len(c.flights)
	c.flightMu.Unlock()
	if n != 0 {
		t.Errorf("%d flights left open after a hit", n)
	}
}

func TestSavingsHook(t *testing.T) {
	c := New(DefaultConfig())
	var gotSaved time.Duration
	c.SetSavingsHook(func(d time.Duration) { gotSaved = d })
	key := fillKey(0)
	commitEntry(t, c, key, nil, nil, false, 80*time.Millisecond)
	c.Probe(key)
	if gotSaved != 80*time.Millisecond {
		t.Errorf("savings hook got %v, want 80ms", gotSaved)
	}
}

func TestDegradedEntryNeverServed(t *testing.T) {
	c := New(DefaultConfig())
	key := fillKey(0)
	commitEntry(t, c, key, [][]term.Value{{term.Int(1)}}, []string{"d:f()"}, true, 50*time.Millisecond)

	if c.Serveable(key) {
		t.Fatal("degraded entry reported serveable")
	}
	res := c.Probe(key)
	if res.Entry != nil {
		t.Fatal("degraded entry was served as a hit")
	}
	if res.Rec == nil {
		t.Fatal("probe over a degraded entry should lead a fresh fill")
	}
	st := c.Stats()
	if st.DegradedStores != 1 || st.DegradedSkips != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 1 degraded store, 1 degraded skip, 0 hits", st)
	}
	// Re-filling with a sound result replaces the degraded entry.
	for _, tu := range [][]term.Value{{term.Int(1)}, {term.Int(2)}} {
		res.Rec.Add(tu, 0)
	}
	res.Rec.Note("d:f()", false)
	res.Rec.Commit(time.Millisecond, domain.CostVector{TAll: 40 * time.Millisecond, Card: 2})
	if !c.Serveable(key) {
		t.Fatal("sound refill not serveable")
	}
}

func TestInvalidateInput(t *testing.T) {
	c := New(DefaultConfig())
	kA, kB := fillKey(0), fillKey(1)
	commitEntry(t, c, kA, nil, []string{"call1", "call2"}, false, 60*time.Millisecond)
	commitEntry(t, c, kB, nil, []string{"call2", "call3"}, false, 60*time.Millisecond)

	c.InvalidateInput("call3")
	if c.Serveable(kA) != true || c.Serveable(kB) != false {
		t.Fatalf("call3 invalidation: A serveable=%v B serveable=%v, want true/false", c.Serveable(kA), c.Serveable(kB))
	}
	c.InvalidateInput("call2")
	if c.Serveable(kA) {
		t.Fatal("call2 invalidation left A serveable")
	}
	if st := c.Stats(); st.Invalidations != 2 {
		t.Errorf("invalidations = %d, want 2", st.Invalidations)
	}
	// The reverse index must be fully unhooked.
	c.invMu.Lock()
	n := len(c.inputIdx)
	c.invMu.Unlock()
	if n != 0 {
		t.Errorf("inputIdx has %d stale keys after full invalidation", n)
	}
}

func TestInvalidateUnknownInputIsNoop(t *testing.T) {
	c := New(DefaultConfig())
	commitEntry(t, c, fillKey(0), nil, []string{"call1"}, false, 60*time.Millisecond)
	c.InvalidateInput("no-such-call")
	if !c.Serveable(fillKey(0)) || c.Stats().Invalidations != 0 {
		t.Error("unrelated invalidation touched the entry")
	}
}

func TestAdmissionThresholds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEntryBytes = 16
	c := New(cfg)

	// Too large to store (3 ints = 24 bytes > 16).
	commitEntry(t, c, fillKey(1),
		[][]term.Value{{term.Int(1)}, {term.Int(2)}, {term.Int(3)}}, nil, false, time.Second)
	if c.Serveable(fillKey(1)) {
		t.Error("oversized fill was admitted")
	}
	if st := c.Stats(); st.RejectedStores != 1 || st.Stores != 0 {
		t.Errorf("stats = %+v, want 1 rejected store, 0 stores", st)
	}
}

// TestOversizedFillAbortsAtCrossingTuple: a relation of three times
// MaxEntryBytes is not buffered to the end of its evaluation — the Add that
// crosses the cap settles the fill aborted.
func TestOversizedFillAbortsAtCrossingTuple(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEntryBytes = 16 // two ints
	c := New(cfg)
	key := fillKey(0)
	lead, follow := c.Probe(key), c.Probe(key)

	for i := 0; i < 6; i++ {
		recording := lead.Rec.Add([]term.Value{term.Int(int64(i))}, time.Duration(i)*time.Millisecond)
		if recording != (i < 2) {
			t.Fatalf("Add #%d reported recording=%v", i, recording)
		}
	}
	for i := 0; i < 2; i++ {
		if it, st := follow.Reader.Next(nil); st != ReadItem || !term.Equal(it.V[0], term.Int(int64(i))) {
			t.Fatalf("replay #%d = (%+v, %v)", i, it, st)
		}
	}
	if _, st := follow.Reader.Next(nil); st != ReadEndAborted {
		t.Fatalf("state after the crossing tuple = %v, want ReadEndAborted", st)
	}
	// The flight slot is free again, and the leader's late Commit is a no-op.
	if res := c.Probe(key); res.Rec == nil {
		t.Error("probe after the abort should lead a fresh fill")
	}
	lead.Rec.Commit(time.Second, domain.CostVector{TAll: time.Second, Card: 6})
	if st := c.Stats(); st.RejectedStores != 1 || st.Stores != 0 || c.Len() != 0 || c.Serveable(key) {
		t.Errorf("stats = %+v, Len = %d; want exactly 1 rejected store and nothing stored", st, c.Len())
	}
}

func TestEvictionPrefersLowDecayedBenefit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEntries = 2
	cfg.Decay = 0.5
	c := New(cfg)

	commitEntry(t, c, fillKey(0), nil, nil, false, 100*time.Millisecond)
	commitEntry(t, c, fillKey(1), nil, nil, false, 10*time.Millisecond)
	// Repeated hits on the cheap entry outweigh the expensive idle one
	// under decay.
	for i := 0; i < 8; i++ {
		if c.Probe(fillKey(1)).Entry == nil {
			t.Fatal("expected hit on entry 1")
		}
	}
	commitEntry(t, c, fillKey(2), nil, nil, false, 20*time.Millisecond)
	if c.Len() != 2 {
		t.Fatalf("Len = %d after eviction, want 2", c.Len())
	}
	if c.Serveable(fillKey(0)) {
		t.Error("idle expensive entry survived; decayed benefit should have evicted it")
	}
	if !c.Serveable(fillKey(1)) || !c.Serveable(fillKey(2)) {
		t.Error("recently valuable entries were evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestSingleFlightFollowerReplay(t *testing.T) {
	c := New(DefaultConfig())
	key := fillKey(0)
	lead := c.Probe(key)
	if lead.Rec == nil {
		t.Fatal("first probe should lead")
	}
	follow := c.Probe(key)
	if follow.Reader == nil {
		t.Fatal("second probe should follow the in-progress fill")
	}

	lead.Rec.Note("call1", false)
	lead.Rec.Add([]term.Value{term.Int(1)}, 5*time.Millisecond)
	lead.Rec.Add([]term.Value{term.Int(2)}, 7*time.Millisecond)

	it, st := follow.Reader.Next(nil)
	if st != ReadItem || !term.Equal(it.V[0], term.Int(1)) || it.At != 5*time.Millisecond {
		t.Fatalf("first replay = (%+v, %v)", it, st)
	}
	it, st = follow.Reader.Next(nil)
	if st != ReadItem || !term.Equal(it.V[0], term.Int(2)) {
		t.Fatalf("second replay = (%+v, %v)", it, st)
	}

	// Follower catches up, then the leader commits: the wait must resolve
	// to a committed end carrying the inputs.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, st := follow.Reader.Next(nil)
		if st != ReadEndCommitted {
			t.Errorf("end state = %v, want ReadEndCommitted", st)
			return
		}
		inputs, degraded, endAt := follow.Reader.Result()
		if len(inputs) != 1 || inputs[0] != "call1" || degraded || endAt != 9*time.Millisecond {
			t.Errorf("Result() = (%v, %v, %v)", inputs, degraded, endAt)
		}
	}()
	lead.Rec.Commit(9*time.Millisecond, domain.CostVector{TAll: 9 * time.Millisecond, Card: 2})
	<-done

	if stats := c.Stats(); stats.FlightShares != 1 {
		t.Errorf("flight shares = %d, want 1", stats.FlightShares)
	}
	if !c.Serveable(key) {
		t.Error("committed fill not serveable")
	}
}

func TestSingleFlightAbortFallsBack(t *testing.T) {
	c := New(DefaultConfig())
	key := fillKey(0)
	lead := c.Probe(key)
	follow := c.Probe(key)
	lead.Rec.Add([]term.Value{term.Int(1)}, time.Millisecond)
	lead.Rec.Abort(2 * time.Millisecond)

	it, st := follow.Reader.Next(nil)
	if st != ReadItem || !term.Equal(it.V[0], term.Int(1)) {
		t.Fatalf("replay before abort = (%+v, %v)", it, st)
	}
	if _, st = follow.Reader.Next(nil); st != ReadEndAborted {
		t.Fatalf("end state = %v, want ReadEndAborted", st)
	}
	if c.Serveable(key) {
		t.Error("aborted fill produced a serveable entry")
	}
	if stats := c.Stats(); stats.FlightFallbacks != 1 {
		t.Errorf("flight fallbacks = %d, want 1", stats.FlightFallbacks)
	}
	// The flight slot must be free for the next prober to lead.
	if res := c.Probe(key); res.Rec == nil {
		t.Error("probe after abort should lead a fresh fill")
	}
}

func TestFlightReaderCancel(t *testing.T) {
	c := New(DefaultConfig())
	key := fillKey(0)
	c.Probe(key) // leader, never commits
	follow := c.Probe(key)
	cancel := make(chan struct{})
	close(cancel)
	if _, st := follow.Reader.Next(cancel); st != ReadCancelled {
		t.Fatalf("state = %v, want ReadCancelled", st)
	}
}

func TestConcurrentFillsAndInvalidations(t *testing.T) {
	// Race-detector stress: concurrent leaders, followers, probes and
	// invalidations over a small key space.
	cfg := DefaultConfig()
	cfg.MaxEntries = 8
	c := New(cfg)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				key := fillKey(rng.Intn(4))
				switch res := c.Probe(key); {
				case res.Rec != nil:
					res.Rec.Note(fmt.Sprintf("call%d", rng.Intn(3)), rng.Intn(10) == 0)
					res.Rec.Add([]term.Value{term.Int(int64(i))}, time.Duration(i))
					if rng.Intn(5) == 0 {
						res.Rec.Abort(time.Duration(i))
					} else {
						res.Rec.Commit(time.Duration(i), domain.CostVector{TAll: time.Duration(rng.Intn(100)) * time.Millisecond})
					}
				case res.Reader != nil:
					for {
						if _, st := res.Reader.Next(nil); st != ReadItem {
							break
						}
					}
				}
				if rng.Intn(7) == 0 {
					c.InvalidateInput(fmt.Sprintf("call%d", rng.Intn(3)))
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("Len = %d exceeds MaxEntries", c.Len())
	}
}

// TestPropertyInvalidatedInputsNeverServed drives a seeded random schedule
// of fills, hits, evictions and invalidations against a ground-truth
// model, asserting the memo never serves a relation any of whose inputs
// was invalidated after the relation was committed.
func TestPropertyInvalidatedInputsNeverServed(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.MaxEntries = 6
		cfg.Decay = 0.9
		c := New(cfg)
		// live[key] = the input set of the currently valid fill, nil when
		// the key must not be served.
		live := map[string][]string{}
		inputs := []string{"in0", "in1", "in2", "in3"}
		for step := 0; step < 500; step++ {
			switch rng.Intn(4) {
			case 0, 1: // fill or probe
				key := fillKey(rng.Intn(10))
				res := c.Probe(key)
				if res.Entry != nil {
					want, ok := live[key]
					if !ok {
						t.Fatalf("seed %d step %d: served %q, which was invalidated or never committed", seed, step, key)
					}
					if len(res.Entry.Inputs) != len(want) {
						t.Fatalf("seed %d step %d: served %q with stale input set %v (want %v)", seed, step, key, res.Entry.Inputs, want)
					}
				} else if res.Rec != nil {
					var ins []string
					for _, in := range inputs {
						if rng.Intn(2) == 0 {
							ins = append(ins, in)
							res.Rec.Note(in, false)
						}
					}
					res.Rec.Commit(time.Millisecond, domain.CostVector{TAll: time.Duration(1+rng.Intn(50)) * time.Millisecond})
					live[key] = ins
				}
			case 2: // invalidate one input
				in := inputs[rng.Intn(len(inputs))]
				c.InvalidateInput(in)
				for k, ins := range live {
					for _, i2 := range ins {
						if i2 == in {
							delete(live, k)
							break
						}
					}
				}
			case 3: // spot-check Serveable against the model (evictions may
				// have dropped a live entry; that is allowed, the reverse —
				// serving a dead one — is not)
				key := fillKey(rng.Intn(10))
				if _, ok := live[key]; !ok && c.Serveable(key) {
					t.Fatalf("seed %d step %d: %q serveable after invalidation", seed, step, key)
				}
			}
		}
	}
}

// TestZeroConfigChargesNothing: a zero cost is a zero cost, not a request
// for a default — the modelled probe and replay costs exist only where the
// experiments' overhead profile sets them.
func TestZeroConfigChargesNothing(t *testing.T) {
	for name, cfg := range map[string]Config{"zero": {}, "default": DefaultConfig()} {
		if c := New(cfg); c.LookupCost() != 0 || c.PerTupleCost() != 0 {
			t.Errorf("%s config charges lookup=%v per-tuple=%v, want 0 and 0", name, c.LookupCost(), c.PerTupleCost())
		}
	}
}
