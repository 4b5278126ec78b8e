package cim

import (
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// TestLedgerEntryRowsLeaveWithTheirEntries: 10 000 distinct calls, each
// missed, hit exactly and hit through an equality invariant, pass through
// an 8-entry cache. The per-entry view lists only what is cached, so it
// stays at 8 rows, while the total and the per-invariant buckets keep
// every credit.
func TestLedgerEntryRowsLeaveWithTheirEntries(t *testing.T) {
	d := domaintest.New("d")
	for _, fn := range []string{"f", "g"} {
		d.Define(fn, domaintest.Func{Arity: 1, PerCall: 100 * time.Millisecond,
			Fn: func([]term.Value) ([]term.Value, error) { return strs("x", "y"), nil }})
	}
	reg := domain.NewRegistry()
	reg.Register(d)
	cfg := testCfg()
	cfg.MaxEntries = 8
	m := New(reg, cfg)
	m.SetObserver(obs.NewObserver())
	inv, err := lang.ParseInvariant("true => d:f(A) = d:g(A).")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(inv); err != nil {
		t.Fatal(err)
	}
	m.SetCostModel(func(domain.Call) (domain.CostVector, bool) {
		return domain.CostVector{TAll: 5 * time.Millisecond}, true
	})
	const n = 10000
	for i := 0; i < n; i++ {
		a := term.Int(int64(i))
		for _, c := range []domain.Call{call("d", "f", a), call("d", "f", a), call("d", "g", a)} {
			drain(t, mustCall(t, m, c))
		}
		if rows := len(m.Ledger().Entries); i%1000 == 0 && rows > 8 {
			t.Fatalf("after %d calls the ledger lists %d entry rows, over the 8-entry cache", i+1, rows)
		}
	}
	led := m.Ledger()
	if len(led.Entries) > 8 {
		t.Errorf("ledger lists %d entry rows, over the 8-entry cache", len(led.Entries))
	}
	for _, r := range led.Entries {
		if r.Hits != 2 || r.Saved != 10*time.Millisecond {
			t.Errorf("entry row %+v, want 2 hits saving 10ms", r)
		}
	}
	if led.Total != 2*n*5*time.Millisecond {
		t.Errorf("total = %v, want %v", led.Total, 2*n*5*time.Millisecond)
	}
	want := []LedgerRow{
		{Key: ExactKey, Hits: n, Saved: n * 5 * time.Millisecond},
		{Key: inv.String(), Hits: n, Saved: n * 5 * time.Millisecond},
	}
	if len(led.Invariants) != 2 || led.Invariants[0] != want[0] || led.Invariants[1] != want[1] {
		t.Errorf("invariant rows = %+v, want %+v", led.Invariants, want)
	}
}

// TestInvariantHitAllocsPer: serving an equality hit and a partial hit
// through a manager with an observer attached allocates what the serve
// itself needs — the call's key, the ground template the invariant is
// matched with, the stream and, for a partial hit, the dedup seed — and
// nothing for the ledger or the hit series: the invariant's text and
// label were rendered when it was registered, and an untraced serve
// renders no tag.
func TestInvariantHitAllocsPer(t *testing.T) {
	m, _, _ := ledgerFixture(t)
	sup, err := lang.ParseInvariant("F1 <= G1 & G2 <= F2 => d:r(F1, F2) >= d:r(G1, G2).")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(sup); err != nil {
		t.Fatal(err)
	}
	a := term.Str("a")
	m.Store(call("d", "f", a), strs("x", "y"), true, domain.CostVector{TAll: time.Second})
	m.Store(call("d", "r", term.Int(2), term.Int(3)), strs("x"), true, domain.CostVector{TAll: time.Second})
	ctx := newCtx()
	serve := func(c domain.Call, want Source) func() {
		return func() {
			resp, err := m.CallThrough(ctx, c)
			if err != nil || resp.Source != want {
				t.Fatalf("%v served from %v (%v), want %v", c, resp.Source, err, want)
			}
			resp.Stream.Close()
		}
	}
	eq := testing.AllocsPerRun(200, serve(call("d", "g", a), SourceCacheEquality))
	part := testing.AllocsPerRun(200, serve(call("d", "r", term.Int(1), term.Int(4)), SourceCachePartial))
	// Measured 3 and 14: the response is a value, the hit stream charges
	// a constant with no closure, and the serving call's name and the
	// saved_ms text are rendered only for a span (8 and 16 before that;
	// 10 and 24 when matching built a substitution per binding, 23 and 43
	// when each hit also rendered the invariant and its label and bumped
	// a series looked up by name).
	if eq > 3 || part > 14 {
		t.Errorf("equality hit allocates %v (bound 3), partial hit %v (bound 14)", eq, part)
	}
}

// TestPartialScanAllocsPer: a partial-hit probe whose superset invariant
// scans every cached call of the other side's function allocates the same
// whether 8 or 64 of them are cached and match: each candidate is matched
// in a frame reset from the probe's, not in a new binding environment.
func TestPartialScanAllocsPer(t *testing.T) {
	sup, err := lang.ParseInvariant("F1 <= G1 & G2 <= F2 => d:r(F1, F2) >= d:r(G1, G2).")
	if err != nil {
		t.Fatal(err)
	}
	probe := call("d", "r", term.Int(0), term.Int(1000))
	var allocs [2]float64
	for i, n := range []int{8, 64} {
		m := New(nil, testCfg())
		if err := m.AddInvariant(sup); err != nil {
			t.Fatal(err)
		}
		for j := 1; j <= n; j++ {
			m.Store(call("d", "r", term.Int(int64(j)), term.Int(int64(j+1))), strs("x"), true, domain.CostVector{})
		}
		allocs[i] = testing.AllocsPerRun(100, func() {
			if src, got := m.Probe(probe); src != SourceCachePartial || got != 1 {
				t.Fatalf("probe over %d cached calls served %v with %d answers, want a partial hit of 1", n, src, got)
			}
		})
	}
	if allocs[0] != allocs[1] {
		t.Errorf("a partial-hit probe allocates %v times over 8 cached calls and %v over 64, want the same", allocs[0], allocs[1])
	}
}
