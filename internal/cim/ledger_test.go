package cim

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// ledgerFixture: one domain with two functions joined by an equality
// invariant, plus a superset invariant over ranges.
func ledgerFixture(t *testing.T) (*Manager, *domaintest.Domain, *obs.Observer) {
	t.Helper()
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 200 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("x", "y"), nil }})
	d.Define("g", domaintest.Func{Arity: 1, PerCall: 150 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("x", "y"), nil }})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	o := obs.NewObserver()
	m.SetObserver(o)
	inv, err := lang.ParseInvariant("true => d:f(A) = d:g(A).")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(inv); err != nil {
		t.Fatal(err)
	}
	return m, d, o
}

func TestLedgerExactAndEqualityHits(t *testing.T) {
	m, d, o := ledgerFixture(t)
	a := term.Str("a")

	// Miss (no credit), then an exact hit and an equality hit.
	drain(t, mustCall(t, m, call("d", "f", a)))
	drain(t, mustCall(t, m, call("d", "f", a)))
	drain(t, mustCall(t, m, call("d", "g", a)))
	if n := d.CallCount("f") + d.CallCount("g"); n != 1 {
		t.Fatalf("source calls = %d, want 1", n)
	}

	led := m.Ledger()
	if led.Total <= 0 {
		t.Fatal("no savings recorded")
	}
	rows := map[string]LedgerRow{}
	for _, r := range led.Invariants {
		rows[r.Key] = r
	}
	exact, ok := rows[ExactKey]
	if !ok || exact.Hits != 1 || exact.Saved <= 0 {
		t.Errorf("exact row = %+v", exact)
	}
	invKey := "true => d:f(A) = d:g(A)."
	eq, ok := rows[invKey]
	if !ok || eq.Hits != 1 || eq.Saved <= 0 {
		t.Errorf("equality row = %+v (rows %v)", eq, rows)
	}
	// Per-invariant savings sum to the total, as do per-entry savings.
	var invSum, entSum time.Duration
	for _, r := range led.Invariants {
		invSum += r.Saved
	}
	for _, r := range led.Entries {
		entSum += r.Saved
	}
	if invSum != led.Total || entSum != led.Total {
		t.Errorf("sums: invariants %v, entries %v, total %v", invSum, entSum, led.Total)
	}
	// Both hits served from the same cached entry.
	if len(led.Entries) != 1 || led.Entries[0].Hits != 2 {
		t.Errorf("entry rows = %+v", led.Entries)
	}

	// No cost model installed: avoided cost falls back to the entry's
	// observed source cost, so each hit saves at least the 200ms PerCall.
	if exact.Saved < 200*time.Millisecond {
		t.Errorf("exact saved %v, want >= 200ms (observed source cost)", exact.Saved)
	}

	// Metrics: saved-ms counter and the per-invariant hit counter.
	if v := o.Metrics.Counter("hermes_cim_saved_ms_total").Value(); v < 400 {
		t.Errorf("hermes_cim_saved_ms_total = %d, want >= 400", v)
	}
	if v := o.Metrics.Counter("hermes_cim_invariant_hits_total", "invariant", invKey).Value(); v != 1 {
		t.Errorf("hermes_cim_invariant_hits_total = %d, want 1", v)
	}
}

func TestLedgerUsesCostModel(t *testing.T) {
	m, _, _ := ledgerFixture(t)
	m.SetCostModel(func(domain.Call) (domain.CostVector, bool) {
		return domain.CostVector{TAll: 5 * time.Second, Card: 2}, true
	})
	a := term.Str("a")
	drain(t, mustCall(t, m, call("d", "f", a)))
	drain(t, mustCall(t, m, call("d", "f", a)))
	led := m.Ledger()
	if led.Total != 5*time.Second {
		t.Errorf("total = %v, want the cost model's 5s", led.Total)
	}
}

// TestLedgerIgnoresSpanEstimates: the ledger prices a hit with its own
// cost model (else the entry's observed cost), never with an estimate that
// happens to sit on the caller's span, such as a query or plan-choice
// span's.
func TestLedgerIgnoresSpanEstimates(t *testing.T) {
	m, _, _ := ledgerFixture(t)
	a := term.Str("a")
	drain(t, mustCall(t, m, call("d", "f", a))) // miss: fills the entry
	traced := func() *domain.Ctx {
		span := obs.NewSpan("query q(X)", 0)
		span.SetEstimate(domain.CostVector{TAll: 7 * time.Second, Card: 2})
		return newCtx().WithSpan(span)
	}
	serve := func(ctx *domain.Ctx) {
		t.Helper()
		resp, err := m.CallThrough(ctx, call("d", "f", a))
		if err != nil || resp.Source != SourceCacheExact {
			t.Fatalf("served from %v (%v), want an exact hit", resp.Source, err)
		}
		drain(t, resp)
	}
	serve(traced()) // no model: the entry's observed 200ms
	m.SetCostModel(func(domain.Call) (domain.CostVector, bool) {
		return domain.CostVector{TAll: 5 * time.Second, Card: 2}, true
	})
	serve(traced()) // the model's 5s
	serve(newCtx()) // the model's 5s
	if want := 200*time.Millisecond + 10*time.Second; m.Ledger().Total != want {
		t.Errorf("total = %v, want %v", m.Ledger().Total, want)
	}
}

func TestLedgerPartialAndDegradedCountHitsOnly(t *testing.T) {
	d := domaintest.New("avis")
	d.Define("frames_to_objects", domaintest.Func{Arity: 3, PerCall: 100 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("o1", "o2"), nil }})
	src := &downable{Domain: d}
	reg := domain.NewRegistry()
	reg.Register(src)
	m := New(reg, testCfg())
	inv, err := lang.ParseInvariant(
		"F1 <= G1 & G2 <= F2 => avis:frames_to_objects(F1, F2, O) >= avis:frames_to_objects(G1, G2, O).")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(inv); err != nil {
		t.Fatal(err)
	}

	// Prime a narrow range, then hit a wider one: partial hit, actual
	// call still runs, so hits are counted but nothing is "saved".
	drain(t, mustCall(t, m, call("avis", "frames_to_objects", term.Int(10), term.Int(20), term.Str("v"))))
	resp := mustCall(t, m, call("avis", "frames_to_objects", term.Int(0), term.Int(90), term.Str("v")))
	if resp.Source != SourceCachePartial {
		t.Fatalf("source = %v, want partial", resp.Source)
	}
	drain(t, resp)
	led := m.Ledger()
	if led.Total != 0 {
		t.Errorf("partial hit credited savings: %v", led.Total)
	}
	if len(led.Invariants) != 1 || led.Invariants[0].Hits != 1 || led.Invariants[0].Key != inv.String() {
		t.Errorf("invariant rows = %+v", led.Invariants)
	}

	// Source down: a degraded serve (cache-only, no working source to
	// avoid) counts a hit, still no savings. The entry it serves is one a
	// concurrent call stores while this call's source call fails.
	narrow := call("avis", "frames_to_objects", term.Int(30), term.Int(40), term.Str("v"))
	src.down = true
	src.whileDown = func() { m.Store(narrow, strs("o1", "o2"), true, domain.CostVector{TAll: time.Second}) }
	resp2 := mustCall(t, m, narrow)
	if resp2.Source != SourceCacheDegraded {
		t.Fatalf("source = %v, want a degraded serve", resp2.Source)
	}
	drain(t, resp2)
	led = m.Ledger()
	if led.Total != 0 {
		t.Errorf("degraded serve credited savings: %v", led.Total)
	}
	var hits int64
	for _, r := range led.Invariants {
		hits += r.Hits
	}
	if hits != 2 {
		t.Errorf("credited hits = %d, want 2 (one partial, one degraded)", hits)
	}
}

func TestLedgerDebugHandler(t *testing.T) {
	m, _, _ := ledgerFixture(t)
	a := term.Str("a")
	drain(t, mustCall(t, m, call("d", "f", a)))
	drain(t, mustCall(t, m, call("d", "g", a)))

	rr := httptest.NewRecorder()
	m.DebugHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/cim", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"CIM savings ledger",
		"top invariants by avoided cost:",
		"true => d:f(A) = d:g(A).",
		"top cache entries by avoided cost:",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/cim missing %q:\n%s", want, body)
		}
	}
}

// TestLedgerNilObserver: crediting with no observer installed must not
// panic and still maintain the ledger (metrics off, accounting on).
func TestLedgerNilObserver(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 50 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) { return strs("x"), nil }})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	a := term.Str("a")
	drain(t, mustCall(t, m, call("d", "f", a)))
	drain(t, mustCall(t, m, call("d", "f", a)))
	if led := m.Ledger(); led.Total <= 0 || len(led.Invariants) != 1 {
		t.Errorf("ledger without observer = %+v", led)
	}
}

func mustCall(t *testing.T, m *Manager, c domain.Call) Response {
	t.Helper()
	resp, err := m.CallThrough(newCtx(), c)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}
