package cim

import (
	"sync"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// testCfg has zero serve costs so timing assertions are about source costs
// only, except where a test overrides it.
func testCfg() Config {
	return Config{ParallelActual: true}
}

func newCtx() *domain.Ctx { return domain.NewCtx(vclock.NewVirtual(0)) }

func call(dom, fn string, args ...term.Value) domain.Call {
	return domain.Call{Domain: dom, Function: fn, Args: args}
}

func drain(t *testing.T, resp Response) []term.Value {
	t.Helper()
	vals, err := domain.Collect(resp.Stream)
	if err != nil {
		t.Fatalf("drain: %v", err)
	}
	return vals
}

// noteLog is what a memo fill sees of the serves under a context: the call
// keys the CIM notes to its CallNote, and whether any was noted degraded.
type noteLog struct {
	mu       sync.Mutex
	keys     map[string]bool
	degraded bool
}

// notingCtx returns a fresh context whose CallNote records into a noteLog.
func notingCtx() (*domain.Ctx, *noteLog) {
	l := &noteLog{keys: map[string]bool{}}
	return newCtx().WithCallNote(func(key string, degraded bool) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.keys[key] = true
		l.degraded = l.degraded || degraded
	}), l
}

// read reports whether key was noted, and whether any note was degraded.
func (l *noteLog) read(key string) (noted, degraded bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.keys[key], l.degraded
}

func strs(ss ...string) []term.Value {
	out := make([]term.Value, len(ss))
	for i, s := range ss {
		out[i] = term.Str(s)
	}
	return out
}

func TestMissThenExactHit(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 100 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("x", "y"), nil }})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())

	ctx := newCtx()
	resp, err := m.CallThrough(ctx, call("d", "f", term.Str("a")))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceActual {
		t.Errorf("first call source = %v", resp.Source)
	}
	if got := drain(t, resp); len(got) != 2 {
		t.Fatalf("answers = %v", got)
	}
	// Second call: exact hit, no source invocation.
	resp2, err := m.CallThrough(newCtx(), call("d", "f", term.Str("a")))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Source != SourceCacheExact {
		t.Errorf("second call source = %v", resp2.Source)
	}
	if got := drain(t, resp2); len(got) != 2 {
		t.Fatalf("cached answers = %v", got)
	}
	if n := d.CallCount("f"); n != 1 {
		t.Errorf("source called %d times, want 1", n)
	}
	st := m.Stats()
	if st.Misses != 1 || st.ExactHits != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestSpatialEqualityInvariant reproduces the paper's §4 example: all
// points lie within a 100x100 square, so any range query wider than 142 is
// equivalent to the clamped query with distance 142.
func TestSpatialEqualityInvariant(t *testing.T) {
	d := domaintest.New("spatial")
	d.Define("range", domaintest.Func{Arity: 4, PerCall: 50 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) {
			// Pretend the clamped query returns these points.
			return strs("p1", "p2", "p3"), nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	inv, err := lang.ParseInvariant(
		"Dist > 142 => spatial:range('map1', X, Y, Dist) = spatial:range('map1', X, Y, 142).")
	if err != nil {
		t.Fatal(err)
	}
	m.AddInvariant(inv)

	// Prime the cache with the clamped call.
	resp, err := m.CallThrough(newCtx(), call("spatial", "range",
		term.Str("map1"), term.Int(10), term.Int(20), term.Int(142)))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp)

	// A much wider query is served from cache via the equality invariant.
	resp2, err := m.CallThrough(newCtx(), call("spatial", "range",
		term.Str("map1"), term.Int(10), term.Int(20), term.Int(500)))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Source != SourceCacheEquality {
		t.Fatalf("source = %v, want equality hit", resp2.Source)
	}
	if got := drain(t, resp2); len(got) != 3 {
		t.Errorf("answers = %v", got)
	}
	if n := d.CallCount("range"); n != 1 {
		t.Errorf("source called %d times, want 1", n)
	}
	// The condition guards soundness: distance 100 (not > 142) must not
	// reuse the cached call.
	resp3, err := m.CallThrough(newCtx(), call("spatial", "range",
		term.Str("map1"), term.Int(10), term.Int(20), term.Int(100)))
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Source != SourceActual {
		t.Errorf("condition violation: source = %v, want actual", resp3.Source)
	}
	drain(t, resp3)
}

// TestSelectLtSupersetInvariant reproduces the paper's §4 subset example:
// select_lt with a smaller bound is contained in select_lt with a larger
// one, so cached answers of the smaller call are a fast partial answer.
func TestSelectLtSupersetInvariant(t *testing.T) {
	full := strs("r1", "r2", "r3", "r4", "r5")
	d := domaintest.New("relation")
	d.Define("select_lt", domaintest.Func{Arity: 3, PerCall: 200 * time.Millisecond, PerAnswer: 10 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) {
			bound, _ := term.Numeric(args[2])
			if bound <= 10 {
				return full[:2], nil
			}
			return full, nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	inv, err := lang.ParseInvariant(
		"V1 <= V2 => relation:select_lt(T, A, V2) >= relation:select_lt(T, A, V1).")
	if err != nil {
		t.Fatal(err)
	}
	m.AddInvariant(inv)

	// Prime with the narrow call (bound 10: 2 answers).
	resp, err := m.CallThrough(newCtx(), call("relation", "select_lt",
		term.Str("emp"), term.Str("age"), term.Int(10)))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp)

	// The wide call (bound 50) gets the cached 2 answers first, then the
	// actual call's remaining answers, deduplicated.
	fromCache := m.Stats().ServedFromCache
	resp2, err := m.CallThrough(newCtx(), call("relation", "select_lt",
		term.Str("emp"), term.Str("age"), term.Int(50)))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Source != SourceCachePartial {
		t.Fatalf("source = %v, want partial hit", resp2.Source)
	}
	if n := m.Stats().ServedFromCache - fromCache; n != 2 {
		t.Errorf("cached answers = %d, want 2", n)
	}
	got := drain(t, resp2)
	if len(got) != 5 {
		t.Fatalf("merged answers = %d (%v), want 5 without duplicates", len(got), got)
	}
	seen := map[string]bool{}
	for _, v := range got {
		if seen[v.Key()] {
			t.Errorf("duplicate answer %v", v)
		}
		seen[v.Key()] = true
	}
	// The reverse direction is unsound and must not fire: a narrow call
	// must not be served from a cached wide call.
	m.Clear()
	resp3, err := m.CallThrough(newCtx(), call("relation", "select_lt",
		term.Str("emp"), term.Str("age"), term.Int(50)))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp3)
	resp4, err := m.CallThrough(newCtx(), call("relation", "select_lt",
		term.Str("emp"), term.Str("age"), term.Int(10)))
	if err != nil {
		t.Fatal(err)
	}
	if resp4.Source == SourceCachePartial || resp4.Source == SourceCacheEquality {
		t.Errorf("unsound reuse: narrow call served from wide cache (%v)", resp4.Source)
	}
	drain(t, resp4)
}

// TestPartialLazyActualCall verifies §4.1's interactive behaviour: if the
// consumer stops within the cached partial answers, the actual source call
// is never issued.
func TestPartialLazyActualCall(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			n, _ := term.Numeric(args[0])
			if n <= 1 {
				return strs("a"), nil
			}
			return strs("a", "b", "c"), nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	inv, _ := lang.ParseInvariant("V1 <= V2 => d:f(V2) >= d:f(V1).")
	m.AddInvariant(inv)

	resp, err := m.CallThrough(newCtx(), call("d", "f", term.Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp)
	if n := d.CallCount("f"); n != 1 {
		t.Fatalf("prime calls = %d", n)
	}

	resp2, err := m.CallThrough(newCtx(), call("d", "f", term.Int(9)))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Source != SourceCachePartial {
		t.Fatalf("source = %v", resp2.Source)
	}
	// Pull only the first (cached) answer, then close.
	v, ok, err := resp2.Stream.Next()
	if err != nil || !ok || !term.Equal(v, term.Str("a")) {
		t.Fatalf("first partial answer = %v %v %v", v, ok, err)
	}
	resp2.Stream.Close()
	if n := d.CallCount("f"); n != 1 {
		t.Errorf("actual call was issued despite early stop: calls = %d", n)
	}
}

// TestParallelActualOverlapsCachedServe checks the clock accounting of the
// parallel strategy: total time is max(cached serve, actual call), not the
// sum.
func TestParallelActualOverlapsCachedServe(t *testing.T) {
	mkManager := func(parallel bool) (*Manager, *domain.Ctx) {
		d := domaintest.New("d")
		d.Define("f", domaintest.Func{Arity: 1, PerCall: 1000 * time.Millisecond,
			Fn: func(args []term.Value) ([]term.Value, error) {
				n, _ := term.Numeric(args[0])
				if n <= 1 {
					return strs("a", "b"), nil
				}
				return strs("a", "b", "c"), nil
			}})
		reg := domain.NewRegistry()
		reg.Register(d)
		cfg := testCfg()
		cfg.PerAnswer = 300 * time.Millisecond
		cfg.ParallelActual = parallel
		m := New(reg, cfg)
		inv, _ := lang.ParseInvariant("V1 <= V2 => d:f(V2) >= d:f(V1).")
		m.AddInvariant(inv)
		// Prime.
		resp, err := m.CallThrough(newCtx(), call("d", "f", term.Int(1)))
		if err != nil {
			t.Fatal(err)
		}
		domain.Collect(resp.Stream)
		return m, newCtx()
	}

	m1, ctx1 := mkManager(true)
	resp, err := m1.CallThrough(ctx1, call("d", "f", term.Int(9)))
	if err != nil {
		t.Fatal(err)
	}
	domain.Collect(resp.Stream)
	parallelTime := ctx1.Clock.Now()

	m2, ctx2 := mkManager(false)
	resp, err = m2.CallThrough(ctx2, call("d", "f", term.Int(9)))
	if err != nil {
		t.Fatal(err)
	}
	domain.Collect(resp.Stream)
	serialTime := ctx2.Clock.Now()

	if parallelTime >= serialTime {
		t.Errorf("parallel (%v) should beat serial (%v)", parallelTime, serialTime)
	}
	// Parallel: cached serve (2x300ms) overlaps the 1s actual call; total
	// should be close to the actual call cost, well under the serial sum.
	if parallelTime > 1500*time.Millisecond {
		t.Errorf("parallel time = %v, want ≈1s", parallelTime)
	}
}

func TestUnavailableFallbackServesPartial(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			n, _ := term.Numeric(args[0])
			if n <= 1 {
				return strs("a"), nil
			}
			return nil, domain.ErrUnavailable
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	inv, _ := lang.ParseInvariant("V1 <= V2 => d:f(V2) >= d:f(V1).")
	m.AddInvariant(inv)
	resp, err := m.CallThrough(newCtx(), call("d", "f", term.Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp)

	// The wide call's actual execution is unavailable: cached partial
	// answers are served and the stream ends cleanly.
	resp2, err := m.CallThrough(newCtx(), call("d", "f", term.Int(9)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := domain.Collect(resp2.Stream)
	if err != nil {
		t.Fatalf("fallback should not error: %v", err)
	}
	if len(got) != 1 || !term.Equal(got[0], term.Str("a")) {
		t.Errorf("fallback answers = %v", got)
	}
	if st := m.Stats(); st.DegradedServes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEvictionLRU(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("v"), nil }})
	reg := domain.NewRegistry()
	reg.Register(d)
	cfg := testCfg()
	cfg.MaxEntries = 2
	m := New(reg, cfg)
	for i := 0; i < 3; i++ {
		resp, err := m.CallThrough(newCtx(), call("d", "f", term.Int(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		drain(t, resp)
	}
	if m.Len() != 2 {
		t.Fatalf("entries = %d, want 2", m.Len())
	}
	if _, ok := m.Lookup(call("d", "f", term.Int(0))); ok {
		t.Error("oldest entry should have been evicted")
	}
	if st := m.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestEvictionCostWeightedKeepsExpensive(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("v"), nil },
	})
	d.Define("slow", domaintest.Func{Arity: 1, PerCall: 10 * time.Second,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("v"), nil },
	})
	reg := domain.NewRegistry()
	reg.Register(d)
	cfg := testCfg()
	cfg.MaxEntries = 2
	cfg.Policy = EvictCostWeighted
	m := New(reg, cfg)
	// Expensive entry first, then two cheap ones.
	resp, _ := m.CallThrough(newCtx(), call("d", "slow", term.Int(0)))
	drain(t, resp)
	resp, _ = m.CallThrough(newCtx(), call("d", "f", term.Int(1)))
	drain(t, resp)
	resp, _ = m.CallThrough(newCtx(), call("d", "f", term.Int(2)))
	drain(t, resp)
	if _, ok := m.Lookup(call("d", "slow", term.Int(0))); !ok {
		t.Error("cost-weighted policy should keep the expensive entry")
	}
}

func TestEvictionByBytes(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			return strs("0123456789"), nil // 10 bytes per entry
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	cfg := testCfg()
	cfg.MaxBytes = 25
	m := New(reg, cfg)
	for i := 0; i < 4; i++ {
		resp, err := m.CallThrough(newCtx(), call("d", "f", term.Int(int64(i))))
		if err != nil {
			t.Fatal(err)
		}
		drain(t, resp)
	}
	if m.Bytes() > 25 {
		t.Errorf("cache bytes = %d, over budget 25", m.Bytes())
	}
}

func TestServeCostsChargeClock(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("a", "b", "c"), nil }})
	reg := domain.NewRegistry()
	reg.Register(d)
	cfg := Config{LookupCost: 40 * time.Millisecond, PerAnswer: 90 * time.Millisecond, ParallelActual: true}
	m := New(reg, cfg)
	resp, _ := m.CallThrough(newCtx(), call("d", "f", term.Int(1)))
	drain(t, resp)

	ctx := newCtx()
	resp2, err := m.CallThrough(ctx, call("d", "f", term.Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp2)
	want := 40*time.Millisecond + 3*90*time.Millisecond
	if got := ctx.Clock.Now(); got != want {
		t.Errorf("cache serve time = %v, want %v", got, want)
	}
}

func TestProbe(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("a", "b"), nil }})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	inv, _ := lang.ParseInvariant("V1 <= V2 => d:f(V2) >= d:f(V1).")
	m.AddInvariant(inv)

	if src, _ := m.Probe(call("d", "f", term.Int(1))); src != SourceActual {
		t.Errorf("cold probe = %v", src)
	}
	resp, _ := m.CallThrough(newCtx(), call("d", "f", term.Int(1)))
	drain(t, resp)
	if src, n := m.Probe(call("d", "f", term.Int(1))); src != SourceCacheExact || n != 2 {
		t.Errorf("probe after store = %v %d", src, n)
	}
	if src, n := m.Probe(call("d", "f", term.Int(5))); src != SourceCachePartial || n != 2 {
		t.Errorf("partial probe = %v %d", src, n)
	}
	// Probe must not mutate stats or issue calls.
	if st := m.Stats(); st.ExactHits != 0 {
		t.Errorf("probe mutated stats: %+v", st)
	}
	if n := d.CallCount("f"); n != 1 {
		t.Errorf("probe issued source calls: %d", n)
	}
}

func TestIncompleteEntryServesAsPartial(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("a", "b", "c"), nil }})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	// First call: pull one answer then close -> incomplete entry stored.
	resp, err := m.CallThrough(newCtx(), call("d", "f", term.Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Stream.Next()
	resp.Stream.Close()
	e, ok := m.Lookup(call("d", "f", term.Int(1)))
	if !ok || e.Complete {
		t.Fatalf("expected incomplete cached entry, got %+v ok=%v", e, ok)
	}
	// Second call: incomplete entry serves as partial; full answers arrive.
	resp2, err := m.CallThrough(newCtx(), call("d", "f", term.Int(1)))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Source != SourceCachePartial {
		t.Fatalf("source = %v", resp2.Source)
	}
	got := drain(t, resp2)
	if len(got) != 3 {
		t.Errorf("answers = %v, want 3", got)
	}
	// And now the entry is complete.
	if e, _ := m.Lookup(call("d", "f", term.Int(1))); !e.Complete {
		t.Error("entry should be complete after full drain")
	}
}

// TestInvariantConditionOnRecordAttribute: conditions may select into
// record-valued call arguments (V.attr comparisons).
func TestInvariantConditionOnRecordAttribute(t *testing.T) {
	d := domaintest.New("d")
	d.Define("q", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("r1", "r2"), nil }})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	// Query descriptors are records; two queries are equivalent when their
	// limit field exceeds 100 (both saturate).
	inv, err := lang.ParseInvariant("Q1.limit > 100 & Q2.limit > 100 => d:q(Q1) = d:q(Q2).")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(inv); err != nil {
		t.Fatal(err)
	}
	desc := func(limit int64) term.Value {
		return term.NewRecord(
			term.Field{Name: "kind", Val: term.Str("scan")},
			term.Field{Name: "limit", Val: term.Int(limit)},
		)
	}
	resp, err := m.CallThrough(newCtx(), call("d", "q", desc(150)))
	if err != nil {
		t.Fatal(err)
	}
	drain(t, resp)
	// A different saturating descriptor is served via the invariant.
	resp2, err := m.CallThrough(newCtx(), call("d", "q", desc(999)))
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Source != SourceCacheEquality {
		t.Errorf("source = %v, want equality via record-path condition", resp2.Source)
	}
	drain(t, resp2)
	// A non-saturating descriptor must not reuse.
	resp3, err := m.CallThrough(newCtx(), call("d", "q", desc(10)))
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Source != SourceActual {
		t.Errorf("source = %v, want actual", resp3.Source)
	}
	drain(t, resp3)
}

func TestStoreAndClear(t *testing.T) {
	reg := domain.NewRegistry()
	m := New(reg, testCfg())
	m.Store(call("d", "f", term.Int(1)), strs("a"), true, domain.CostVector{})
	if m.Len() != 1 || m.Bytes() != 1 {
		t.Errorf("len=%d bytes=%d", m.Len(), m.Bytes())
	}
	m.Clear()
	if m.Len() != 0 || m.Bytes() != 0 {
		t.Errorf("after clear: len=%d bytes=%d", m.Len(), m.Bytes())
	}
}
