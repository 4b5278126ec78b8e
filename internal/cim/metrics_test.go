package cim

import (
	"bytes"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// TestSavedMSKeepsSubMillisecondSavings: the exported savings counter is
// rendered from one nanosecond tally, so hits that each save less than a
// millisecond still add up. At the parent every 400 µs credit truncated to 0.
func TestSavedMSKeepsSubMillisecondSavings(t *testing.T) {
	m, _, o := ledgerFixture(t)
	m.SetCostModel(func(domain.Call) (domain.CostVector, bool) {
		return domain.CostVector{TAll: 400 * time.Microsecond, Card: 2}, true
	})
	a := term.Str("a")
	drain(t, mustCall(t, m, call("d", "f", a))) // miss: fills the entry
	for i := 0; i < 1000; i++ {
		drain(t, mustCall(t, m, call("d", "f", a)))
	}
	got := o.Counter("hermes_cim_saved_ms_total").Value()
	if got < 399 || got > 401 {
		t.Errorf("hermes_cim_saved_ms_total = %d after 1000 hits of 400µs, want 400 (±1)", got)
	}
	if want := m.Ledger().Total.Milliseconds(); got != want {
		t.Errorf("hermes_cim_saved_ms_total = %d, ledger total = %d ms", got, want)
	}
}

// TestSavedMSReadsRestoredLedger: the exported savings counter reads the
// ledger's total, so a manager that loaded a snapshot carrying savings
// shows them on hermes_cim_saved_ms_total exactly as Ledger().Total does.
// At the parent the counter kept its own tally, which a load left at 0.
func TestSavedMSReadsRestoredLedger(t *testing.T) {
	m, d, _ := ledgerFixture(t)
	a := term.Str("a")
	drain(t, mustCall(t, m, call("d", "f", a))) // miss: fills the entry
	drain(t, mustCall(t, m, call("d", "f", a))) // exact hit: credits savings
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reg := domain.NewRegistry()
	reg.Register(d)
	m2 := New(reg, testCfg())
	o := obs.NewObserver()
	m2.SetObserver(o)
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	want := m2.Ledger().Total.Milliseconds()
	if want == 0 {
		t.Fatal("the restored ledger carries no savings")
	}
	if got := o.Counter("hermes_cim_saved_ms_total").Value(); got != want {
		t.Errorf("hermes_cim_saved_ms_total = %d after a load, ledger total = %d ms", got, want)
	}
}

// TestExportedFamiliesEqualStats drives every kind of probe — miss, exact,
// equality and partial hits, an eviction, a failing source served degraded
// — and checks each exported family against the Stats field it shares a
// tally with, read by name the way bench and the rollup read it. A handle
// declared but never attached leaves its family at zero and fails here.
func TestExportedFamiliesEqualStats(t *testing.T) {
	d := domaintest.New("d")
	for _, fn := range []string{"f", "g"} {
		d.Define(fn, domaintest.Func{Arity: 1, PerCall: 100 * time.Millisecond,
			Fn: func([]term.Value) ([]term.Value, error) { return strs("x", "y"), nil }})
	}
	d.Define("r", domaintest.Func{Arity: 2, PerCall: 100 * time.Millisecond,
		Fn: func([]term.Value) ([]term.Value, error) { return strs("x", "y"), nil }})
	src := &downable{Domain: d}
	reg := domain.NewRegistry()
	reg.Register(src)
	cfg := testCfg()
	cfg.MaxEntries = 3
	m := New(reg, cfg)
	o := obs.NewObserver()
	m.SetObserver(o)
	for _, isrc := range []string{
		"true => d:f(A) = d:g(A).",
		"F1 <= G1 & G2 <= F2 => d:r(F1, F2) >= d:r(G1, G2).",
	} {
		inv, err := lang.ParseInvariant(isrc)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddInvariant(inv); err != nil {
			t.Fatal(err)
		}
	}

	a := term.Str("a")
	drain(t, mustCall(t, m, call("d", "f", a)))                        // miss
	drain(t, mustCall(t, m, call("d", "f", a)))                        // exact
	drain(t, mustCall(t, m, call("d", "g", a)))                        // equality
	drain(t, mustCall(t, m, call("d", "r", term.Int(2), term.Int(3)))) // miss
	drain(t, mustCall(t, m, call("d", "r", term.Int(1), term.Int(4)))) // partial, completed by the source
	drain(t, mustCall(t, m, call("d", "f", term.Str("b"))))            // miss; over budget: evicts
	src.down = true
	drain(t, mustCall(t, m, call("d", "r", term.Int(0), term.Int(9)))) // partial whose completion fails: degraded
	drain(t, mustCall(t, m, call("d", "g", term.Str("b"))))            // equality still serves from cache
	if _, err := m.CallThrough(newCtx(), call("d", "f", term.Str("zz"))); err == nil {
		t.Fatal("a miss on a down source with nothing cached should fail")
	}

	st := m.Stats()
	for _, f := range []struct {
		name   string
		labels []string
		want   int
	}{
		{"hermes_cim_lookups_total", []string{"outcome", "exact"}, st.ExactHits},
		{"hermes_cim_lookups_total", []string{"outcome", "equality"}, st.EqualityHits},
		{"hermes_cim_lookups_total", []string{"outcome", "partial"}, st.PartialHits},
		{"hermes_cim_lookups_total", []string{"outcome", "miss"}, st.Misses},
		{"hermes_cim_degraded_total", nil, st.DegradedServes},
		{"hermes_cim_evictions_total", nil, st.Evictions},
		{"hermes_cim_singleflight_shares_total", nil, st.SingleFlightShares},
	} {
		if got := o.Counter(f.name, f.labels...).Value(); got != int64(f.want) {
			t.Errorf("%s%v = %d, Stats says %d", f.name, f.labels, got, f.want)
		}
	}
	for name, min := range map[string]int{"exact": 1, "equality": 2, "partial": 2, "miss": 4} {
		if got := o.Counter("hermes_cim_lookups_total", "outcome", name).Value(); got < int64(min) {
			t.Errorf("the workload left outcome=%s at %d, want >= %d", name, got, min)
		}
	}
	if st.Evictions == 0 || st.DegradedServes == 0 {
		t.Errorf("the workload must evict and serve degraded: %+v", st)
	}
	if got, want := o.Metrics.Gauge("hermes_cim_entries").Value(), float64(m.Len()); got != want || want == 0 {
		t.Errorf("hermes_cim_entries = %g, Len = %g", got, want)
	}
	if got, want := o.Metrics.Gauge("hermes_cim_bytes").Value(), float64(m.Bytes()); got != want || want == 0 {
		t.Errorf("hermes_cim_bytes = %g, Bytes = %g", got, want)
	}
	if got, want := o.Counter("hermes_cim_saved_ms_total").Value(), m.Ledger().Total.Milliseconds(); got != want {
		t.Errorf("hermes_cim_saved_ms_total = %d, ledger total = %d ms", got, want)
	}
	if got := o.Counter("hermes_invindex_candidates_total").Value(); got == 0 {
		t.Error("hermes_invindex_candidates_total did not move")
	}
}

// TestProbeCountsNoCandidates: Probe has no side effects on the stats, so
// a probe that reaches the equality and partial rungs leaves
// hermes_invindex_candidates_total where it was; the serve path counts.
func TestProbeCountsNoCandidates(t *testing.T) {
	m, _ := invariantTestbed(t, testCfg())
	o := obs.NewObserver()
	m.SetObserver(o)
	candidates := o.Counter("hermes_invindex_candidates_total")
	c := call("d", "f", term.Str("a"))
	if src, _ := m.Probe(c); src != SourceActual {
		t.Fatalf("probe with nothing cached = %v, want actual", src)
	}
	if got := candidates.Value(); got != 0 {
		t.Fatalf("a probe moved hermes_invindex_candidates_total to %d", got)
	}
	drain(t, mustCall(t, m, c))
	if got := candidates.Value(); got == 0 {
		t.Fatal("the serve path did not count its candidates")
	}
}
