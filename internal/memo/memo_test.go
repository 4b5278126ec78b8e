package memo

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// fillKey is the key of the occurrence p<i>(X) under fingerprint 1.
func fillKey(i int) []byte {
	return fmt.Appendf(nil, "p%d^f|#1|v0", i)
}

// commitEntry drives a full leader fill through the public API.
func commitEntry(t *testing.T, c *Cache, key []byte, tuples [][]term.Value, inputs []string, degraded bool, cost time.Duration) {
	t.Helper()
	res := c.Probe(key)
	if res.Rec == nil {
		t.Fatalf("Probe(%q) did not make us the fill leader: %+v", key, res)
	}
	for _, in := range inputs {
		res.Rec.Note(in, degraded)
	}
	for _, tu := range tuples {
		res.Rec.Add(tu)
	}
	res.Rec.Commit(domain.CostVector{TAll: cost, Card: float64(len(tuples))})
}

// bigRow is a one-column tuple of n bytes.
func bigRow(n int) []term.Value { return []term.Value{term.Str(strings.Repeat("x", n))} }

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
}

func TestDegradedEntryNeverServed(t *testing.T) {
	c := New(DefaultConfig())
	key := fillKey(0)
	commitEntry(t, c, key, [][]term.Value{{term.Int(1)}}, []string{"d:f()"}, true, 50*time.Millisecond)

	if _, ok := c.EstimateServe(key); ok || c.Len() != 0 {
		t.Fatalf("a fill that read a degraded call was stored (Len %d)", c.Len())
	}
	res := c.Probe(key)
	if res.Entry != nil {
		t.Fatal("degraded fill was served as a hit")
	}
	if res.Rec == nil {
		t.Fatal("probe after a degraded fill should start a fresh fill")
	}
	st := c.Stats()
	if st.Stores != 0 || st.Invalidations != 1 || st.Hits != 0 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 0 stores, 1 invalidation, 0 hits, 2 misses", st)
	}
	// A sound refill is stored.
	for _, tu := range [][]term.Value{{term.Int(1)}, {term.Int(2)}} {
		res.Rec.Add(tu)
	}
	res.Rec.Note("d:f()", false)
	res.Rec.Commit(domain.CostVector{TAll: 40 * time.Millisecond, Card: 2})
	if _, ok := c.EstimateServe(key); !ok {
		t.Fatal("sound refill not serveable")
	}
}

// TestInvalidationDuringFillStoresNothing: a fill whose input call is
// refreshed or evicted between its Note and its Commit read answers that
// are no longer current, so it stores nothing and counts one invalidation.
func TestInvalidationDuringFillStoresNothing(t *testing.T) {
	c := New(DefaultConfig())
	key := fillKey(0)
	res := c.Probe(key)
	res.Rec.Note("d:f()", false)
	res.Rec.Add([]term.Value{term.Int(1)})
	c.InvalidateInput("d:f()")
	res.Rec.Commit(domain.CostVector{TAll: time.Millisecond, Card: 1})
	if _, ok := c.EstimateServe(key); ok {
		t.Error("fill whose input was invalidated mid-fill is serveable")
	}
	if st := c.Stats(); st.Invalidations != 1 || st.Stores != 0 {
		t.Errorf("stats = %+v, want 1 invalidation and 0 stores", st)
	}

	// The rule looks at the fill's own inputs, from its start on: an
	// invalidation before the fill started, or of a call it did not read,
	// does not stop it.
	c.InvalidateInput("d:g()")
	res = c.Probe(key)
	res.Rec.Note("d:g()", false)
	c.InvalidateInput("d:h()")
	res.Rec.Commit(domain.CostVector{TAll: time.Millisecond})
	if _, ok := c.EstimateServe(key); !ok {
		t.Error("fill untouched by its inputs' invalidations was not stored")
	}
}

// TestFillOutlivingTheRingStoresNothing: Commit sees the last invRing
// invalidations; a fill that outlived more cannot tell whether one of
// them was its input, so it is not stored.
func TestFillOutlivingTheRingStoresNothing(t *testing.T) {
	c := New(DefaultConfig())
	for _, n := range []int{invRing, invRing + 1} {
		key := fillKey(n)
		res := c.Probe(key)
		res.Rec.Note("d:f()", false)
		for i := 0; i < n; i++ {
			c.InvalidateInput(fmt.Sprintf("d:other(%d)", i))
		}
		res.Rec.Commit(domain.CostVector{TAll: time.Millisecond})
		if _, got := c.EstimateServe(key); got != (n <= invRing) {
			t.Errorf("after %d unrelated invalidations: serveable = %v, want %v", n, got, n <= invRing)
		}
	}
}

func TestInvalidateInput(t *testing.T) {
	c := New(DefaultConfig())
	kA, kB := fillKey(0), fillKey(1)
	commitEntry(t, c, kA, nil, []string{"call1", "call2"}, false, 60*time.Millisecond)
	commitEntry(t, c, kB, nil, []string{"call2", "call3"}, false, 60*time.Millisecond)

	c.InvalidateInput("call3")
	_, okA := c.EstimateServe(kA)
	_, okB := c.EstimateServe(kB)
	if okA != true || okB != false {
		t.Fatalf("call3 invalidation: A serveable=%v B serveable=%v, want true/false", okA, okB)
	}
	c.InvalidateInput("call2")
	if _, ok := c.EstimateServe(kA); ok {
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
	if _, ok := c.EstimateServe(fillKey(0)); !ok || c.Stats().Invalidations != 0 {
		t.Error("unrelated invalidation touched the entry")
	}
}

func TestAdmissionThresholds(t *testing.T) {
	c := New(DefaultConfig())

	// Too large to store: three rows of 100 KiB > maxEntryBytes.
	row := bigRow(100 << 10)
	commitEntry(t, c, fillKey(1), [][]term.Value{row, row, row}, nil, false, time.Second)
	if _, ok := c.EstimateServe(fillKey(1)); ok {
		t.Error("oversized fill was admitted")
	}
	if st := c.Stats(); st.RejectedStores != 1 || st.Stores != 0 {
		t.Errorf("stats = %+v, want 1 rejected store, 0 stores", st)
	}
	// Two of them fit.
	commitEntry(t, c, fillKey(2), [][]term.Value{row, row}, nil, false, time.Second)
	if _, ok := c.EstimateServe(fillKey(2)); !ok {
		t.Error("fill under maxEntryBytes was not admitted")
	}
}

// TestOversizedFillAbortsAtCrossingTuple: a relation of three times
// maxEntryBytes is not buffered to the end of its evaluation — the Add that
// crosses the cap ends the fill, and its late Commit stores nothing.
func TestOversizedFillAbortsAtCrossingTuple(t *testing.T) {
	c := New(DefaultConfig())
	key := fillKey(0)
	lead := c.Probe(key)
	row := bigRow(maxEntryBytes / 2) // two rows fill the cap exactly

	for i := 0; i < 6; i++ {
		if recording := lead.Rec.Add(row); recording != (i < 2) {
			t.Fatalf("Add #%d reported recording=%v", i, recording)
		}
	}
	if lead.Rec.tuples != nil {
		t.Errorf("the ended fill still buffers %d tuples", len(lead.Rec.tuples))
	}
	if res := c.Probe(key); res.Rec == nil {
		t.Error("probe after the abort should start a fresh fill")
	}
	lead.Rec.Commit(domain.CostVector{TAll: time.Second, Card: 6})
	_, served := c.EstimateServe(key)
	if st := c.Stats(); st.RejectedStores != 1 || st.Stores != 0 || c.Len() != 0 || served {
		t.Errorf("stats = %+v, Len = %d; want exactly 1 rejected store and nothing stored", st, c.Len())
	}
}

// TestEvictionIsLeastRecentlyUsed: over budget, the entry neither stored
// nor hit for longest goes first, whatever its fill cost; a hit renews an
// entry, and the estimator's EstimateServe does not.
func TestEvictionIsLeastRecentlyUsed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEntries = 2
	c := New(cfg)

	commitEntry(t, c, fillKey(0), nil, nil, false, 100*time.Millisecond)
	commitEntry(t, c, fillKey(1), nil, nil, false, 10*time.Millisecond)
	if c.Probe(fillKey(0)).Entry == nil {
		t.Fatal("expected hit on entry 0")
	}
	c.EstimateServe(fillKey(1))
	commitEntry(t, c, fillKey(2), nil, nil, false, 20*time.Millisecond)
	if _, ok := c.EstimateServe(fillKey(1)); ok {
		t.Error("entry 1, idle since its store, survived; LRU should have evicted it")
	}
	_, ok0 := c.EstimateServe(fillKey(0))
	_, ok2 := c.EstimateServe(fillKey(2))
	if !ok0 || !ok2 {
		t.Error("recently used entries were evicted")
	}
	// Entry 0's hit is now older than entry 2's store.
	commitEntry(t, c, fillKey(3), nil, nil, false, time.Second)
	_, ok0 = c.EstimateServe(fillKey(0))
	_, ok2 = c.EstimateServe(fillKey(2))
	_, ok3 := c.EstimateServe(fillKey(3))
	if ok0 || !ok2 || !ok3 {
		t.Error("the second eviction did not take the least recently used entry 0")
	}
	if st := c.Stats(); st.Evictions != 2 || c.Len() != 2 {
		t.Errorf("evictions = %d, Len = %d; want 2 and 2", st.Evictions, c.Len())
	}
}

func TestConcurrentFillsOfOneKeyEachLead(t *testing.T) {
	c := New(DefaultConfig())
	key := fillKey(0)
	first, second := c.Probe(key), c.Probe(key)
	if first.Rec == nil || second.Rec == nil {
		t.Fatal("both probes of an unfilled key should start a fill")
	}
	first.Rec.Note("call1", false)
	second.Rec.Note("call1", false)
	first.Rec.Add([]term.Value{term.Int(1)})
	second.Rec.Add([]term.Value{term.Int(2)})
	first.Rec.Commit(domain.CostVector{TAll: time.Millisecond, Card: 1})
	second.Rec.Commit(domain.CostVector{TAll: time.Millisecond, Card: 1})

	res := c.Probe(key)
	if res.Entry == nil || !term.Equal(res.Entry.Tuples[0][0], term.Int(2)) {
		t.Fatalf("probe = %+v, want the last committed fill", res)
	}
	if st := c.Stats(); st.Stores != 2 || st.Misses != 2 || c.Len() != 1 {
		t.Errorf("stats = %+v, Len = %d; want 2 stores of one entry", st, c.Len())
	}
	// The replaced entry is unhooked: one invalidation drops the survivor.
	c.InvalidateInput("call1")
	if _, ok := c.EstimateServe(key); ok || c.Stats().Invalidations != 1 {
		t.Errorf("invalidation after a replacing store: serveable=%v stats=%+v", ok, c.Stats())
	}
}

func TestAbortStoresNothing(t *testing.T) {
	c := New(DefaultConfig())
	key := fillKey(0)
	res := c.Probe(key)
	res.Rec.Add([]term.Value{term.Int(1)})
	res.Rec.Abort()
	res.Rec.Commit(domain.CostVector{TAll: time.Millisecond})
	if _, ok := c.EstimateServe(key); ok || c.Stats().Stores != 0 {
		t.Error("aborted fill produced a serveable entry")
	}
	if res := c.Probe(key); res.Rec == nil {
		t.Error("probe after abort should start a fresh fill")
	}
}

func TestConcurrentFillsAndInvalidations(t *testing.T) {
	// Race-detector stress: concurrent fills, probes and invalidations
	// over a small key space.
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
				if res := c.Probe(key); res.Rec != nil {
					res.Rec.Note(fmt.Sprintf("call%d", rng.Intn(3)), rng.Intn(10) == 0)
					res.Rec.Add([]term.Value{term.Int(int64(i))})
					if rng.Intn(5) == 0 {
						res.Rec.Abort()
					} else {
						res.Rec.Commit(domain.CostVector{TAll: time.Duration(rng.Intn(100)) * time.Millisecond})
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
// was invalidated after its fill started. Fills stay open across steps,
// so invalidations land between a fill's Notes and its Commit as well as
// on committed relations.
func TestPropertyInvalidatedInputsNeverServed(t *testing.T) {
	type fill struct {
		key    string
		id     int
		rec    *Recording
		ins    []string // inputs it will note, in order
		noted  int
		spoilt bool // an input was invalidated since the fill started
		invs   int  // invalidations since the fill started
	}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := DefaultConfig()
		cfg.MaxEntries = 6
		c := New(cfg)
		// live[key] = the id of the fill whose relation may be served; a
		// key absent must not be served.
		live := map[string]int{}
		liveIns := map[string][]string{}
		var open []*fill
		inputs := []string{"in0", "in1", "in2", "in3"}
		for step := 0; step < 800; step++ {
			switch rng.Intn(6) {
			case 0, 1: // probe: a hit must be the live fill; a miss opens a fill
				key := string(fillKey(rng.Intn(10)))
				res := c.Probe([]byte(key))
				if res.Entry != nil {
					want, ok := live[key]
					if !ok {
						t.Fatalf("seed %d step %d: served %q, which was invalidated or never committed", seed, step, key)
					}
					if got := int(res.Entry.Tuples[0][0].(term.Int)); got != want {
						t.Fatalf("seed %d step %d: served %q from fill %d, want fill %d", seed, step, key, got, want)
					}
					continue
				}
				f := &fill{key: key, id: step, rec: res.Rec}
				for _, in := range inputs {
					if rng.Intn(2) == 0 {
						f.ins = append(f.ins, in)
					}
				}
				f.rec.Add([]term.Value{term.Int(int64(step))})
				open = append(open, f)
			case 2: // an open fill notes its next input, or commits
				if len(open) == 0 {
					continue
				}
				k := rng.Intn(len(open))
				f := open[k]
				if f.noted < len(f.ins) {
					f.rec.Note(f.ins[f.noted], false)
					f.noted++
					continue
				}
				f.rec.Commit(domain.CostVector{TAll: time.Duration(1+rng.Intn(50)) * time.Millisecond})
				open = append(open[:k], open[k+1:]...)
				if !f.spoilt && f.invs <= invRing {
					live[f.key], liveIns[f.key] = f.id, f.ins
				}
			case 3: // invalidate one input
				in := inputs[rng.Intn(len(inputs))]
				c.InvalidateInput(in)
				for k, ins := range liveIns {
					for _, i2 := range ins {
						if i2 == in {
							delete(live, k)
							delete(liveIns, k)
							break
						}
					}
				}
				for _, f := range open {
					f.invs++
					for _, i2 := range f.ins {
						f.spoilt = f.spoilt || i2 == in
					}
				}
			default: // spot-check EstimateServe against the model (evictions may
				// have dropped a live entry; that is allowed, the reverse —
				// serving a dead one — is not)
				key := string(fillKey(rng.Intn(10)))
				_, isLive := live[key]
				if _, served := c.EstimateServe([]byte(key)); !isLive && served {
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

// TestFillAllocsPer: a miss, two Notes, eight Adds and a Commit allocate
// the Recording, its input list and set, the growing tuple slice and the
// Entry; checking the fill against the invalidation ring allocates
// nothing.
func TestFillAllocsPer(t *testing.T) {
	const runs = 200
	c := New(DefaultConfig())
	keys := make([][]byte, runs+1) // AllocsPerRun makes one warm-up call
	for i := range keys {
		keys[i] = fillKey(i)
	}
	row := []term.Value{term.Int(1)}
	cost := domain.CostVector{TAll: time.Millisecond, Card: 8}
	next := 0
	n := testing.AllocsPerRun(runs, func() {
		rec := c.Probe(keys[next]).Rec
		next++
		rec.Note("d:f()", false)
		rec.Note("d:g()", false)
		for i := 0; i < 8; i++ {
			rec.Add(row)
		}
		rec.Commit(cost)
	})
	if c.Len() != runs+1 {
		t.Fatalf("Len = %d, want every fill stored", c.Len())
	}
	// Measured 10 (12 when a fill also published into a flight log).
	if n > 12 {
		t.Errorf("fill allocates %v, bound 12", n)
	}
}
