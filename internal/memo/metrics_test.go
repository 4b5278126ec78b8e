package memo

import (
	"testing"
	"time"

	"hermes/internal/obs"
	"hermes/internal/term"
)

// TestSavedMSKeepsSubMillisecondSavings: hermes_memo_saved_ms_total is
// rendered from the one nanosecond tally Stats().Saved reads, so hits that
// each save less than a millisecond add up instead of truncating to 0.
func TestSavedMSKeepsSubMillisecondSavings(t *testing.T) {
	c := New(DefaultConfig())
	o := obs.NewObserver()
	c.SetObserver(o)
	key := fillKey(0)
	commitEntry(t, c, key, nil, nil, false, 400*time.Microsecond)
	for i := 0; i < 1000; i++ {
		c.Probe(key)
	}
	if got := o.Counter("hermes_memo_saved_ms_total").Value(); got != 400 {
		t.Errorf("hermes_memo_saved_ms_total = %d after 1000 hits of 400µs, want 400", got)
	}
	if got := c.Stats().Saved; got != 400*time.Millisecond {
		t.Errorf("Stats().Saved = %v, want 400ms", got)
	}
}

// TestExportedFamiliesEqualStats drives hits, misses, an invalidation and
// evictions, then checks every exported family against the Stats field it
// shares a tally with, read by name. A handle declared but never attached
// fails here.
func TestExportedFamiliesEqualStats(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxEntries = 2
	c := New(cfg)
	o := obs.NewObserver()
	c.SetObserver(o)

	row := [][]term.Value{{term.Int(1)}}
	commitEntry(t, c, fillKey(0), row, []string{"d:f()"}, false, 50*time.Millisecond)
	c.Probe(fillKey(0)) // hit
	c.InvalidateInput("d:f()")
	for i := 2; i < 5; i++ { // over the 2-entry budget: evicts
		commitEntry(t, c, fillKey(i), row, nil, false, time.Duration(i)*time.Millisecond)
	}

	st := c.Stats()
	for name, want := range map[string]int{
		"hermes_memo_hits_total":          st.Hits,
		"hermes_memo_misses_total":        st.Misses,
		"hermes_memo_stores_total":        st.Stores,
		"hermes_memo_evictions_total":     st.Evictions,
		"hermes_memo_invalidations_total": st.Invalidations,
		"hermes_memo_saved_ms_total":      int(st.Saved.Milliseconds()),
	} {
		got := o.Counter(name).Value()
		if got != int64(want) {
			t.Errorf("%s = %d, Stats says %d", name, got, want)
		}
		if got == 0 {
			t.Errorf("%s did not move: the workload must exercise it", name)
		}
	}
	if got, want := o.Metrics.Gauge("hermes_memo_entries").Value(), float64(c.Len()); got != want || want == 0 {
		t.Errorf("hermes_memo_entries = %g, Len = %g", got, want)
	}
	if got, want := o.Metrics.Gauge("hermes_memo_bytes").Value(), float64(c.Bytes()); got != want || want == 0 {
		t.Errorf("hermes_memo_bytes = %g, Bytes = %g", got, want)
	}
}
