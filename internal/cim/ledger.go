package cim

// This file is the savings ledger: per-invariant and per-cache-entry
// attribution of what the CIM actually earned. Every serve that skips a
// source call is credited with the avoided cost — the DCSM's estimate
// for the call the hit replaced, falling back to the serving entry's
// observed source cost — so operators can ask "which invariant is
// earning its keep?" the same way the paper's CIM experiments compare
// cached vs actual execution times.

import (
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/lang"
)

// ExactKey is the ledger attribution key for exact cache hits (hits
// that needed no invariant).
const ExactKey = "(exact)"

// LedgerRow is one attribution bucket: an invariant (or ExactKey) in the
// per-invariant view, a cached call in the per-entry view. A restored
// snapshot may also hold a "(memo)" bucket, which earlier versions
// credited memo hits to; it loads as a historical row and grows no more.
type LedgerRow struct {
	Key   string        `json:"key"`
	Hits  int64         `json:"hits"`
	Saved time.Duration `json:"saved"`
}

// LedgerSnapshot is the savings ledger at a point in time. Rows are
// sorted by avoided cost (descending), then hits, then key. Entries lists
// the calls cached now: a call's row leaves with its cache entry.
type LedgerSnapshot struct {
	Total      time.Duration `json:"total"`
	Invariants []LedgerRow   `json:"invariants"`
	Entries    []LedgerRow   `json:"entries"`
}

// ledger accumulates the per-invariant buckets: a ledger of what already
// happened, which cache eviction does not touch. The per-entry rows live
// on the entries.
type ledger struct {
	mu          sync.Mutex
	total       time.Duration
	byInvariant map[string]LedgerRow
}

func (l *ledger) credit(invKey string, saved time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	r := l.byInvariant[invKey]
	r.Key, r.Hits, r.Saved = invKey, r.Hits+1, r.Saved+saved
	l.byInvariant[invKey] = r
	l.total += saved
}

// hits reads one bucket's hit count: what its invariant's
// hermes_cim_invariant_hits_total series shows.
func (l *ledger) hits(invKey string) int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byInvariant[invKey].Hits
}

// savedTotal reads the avoided cost summed over every bucket: what
// hermes_cim_saved_ms_total shows.
func (l *ledger) savedTotal() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// sortRows orders rows by avoided cost (descending), then hits, then key.
func sortRows(rows []LedgerRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Saved != rows[j].Saved {
			return rows[i].Saved > rows[j].Saved
		}
		if rows[i].Hits != rows[j].Hits {
			return rows[i].Hits > rows[j].Hits
		}
		return rows[i].Key < rows[j].Key
	})
}

// snapshot returns the total and the per-invariant view.
func (l *ledger) snapshot() LedgerSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := LedgerSnapshot{Total: l.total, Invariants: make([]LedgerRow, 0, len(l.byInvariant))}
	for _, r := range l.byInvariant {
		s.Invariants = append(s.Invariants, r)
	}
	sortRows(s.Invariants)
	return s
}

// restore replaces the per-invariant buckets with a persisted snapshot's,
// so savings attribution survives a mediator restart alongside the cache.
func (l *ledger) restore(s LedgerSnapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total = s.Total
	l.byInvariant = make(map[string]LedgerRow, len(s.Invariants))
	for _, r := range s.Invariants {
		l.byInvariant[r.Key] = r
	}
}

// SetCostModel installs the estimator used to price the source call a
// cache hit avoided; the mediator wires it to the DCSM. Without one (or
// when the model has no estimate) the serving entry's observed source
// cost is used instead.
func (m *Manager) SetCostModel(fn func(domain.Call) (domain.CostVector, bool)) {
	m.hookMu.Lock()
	defer m.hookMu.Unlock()
	m.costModel = fn
}

func (m *Manager) costModelHook() func(domain.Call) (domain.CostVector, bool) {
	m.hookMu.RLock()
	defer m.hookMu.RUnlock()
	return m.costModel
}

// avoidedCost prices the source call a hit skipped: the model's estimate
// for the requested call when available, else the serving entry's
// observed cost.
func (m *Manager) avoidedCost(call domain.Call, e *Entry) time.Duration {
	if model := m.costModelHook(); model != nil {
		if cv, ok := model(call); ok && cv.TAll > 0 {
			return cv.TAll
		}
	}
	return e.Cost.TAll
}

// credit records one cache serve in the ledger: in the serving entry's
// row and in its invariant's bucket (ExactKey for none). withSavings is
// true when the serve genuinely replaced a source call (exact and
// equality hits); partial and degraded serves count hits only — a partial
// hit still issues the actual call, and a degraded serve had no working
// source to avoid. Invariant hits tag the span with the invariant; savings
// additionally tag cim.saved_ms so a trace's per-span avoided costs sum to
// the ledger total. An untraced serve renders no tag.
func (m *Manager) credit(ctx *domain.Ctx, call domain.Call, e *Entry, inv *lang.Invariant, withSavings bool) {
	invKey := ExactKey
	if inv != nil {
		m.hookMu.RLock()
		invKey = m.invs[inv].key
		m.hookMu.RUnlock()
		ctx.Span.SetTag("invariant", invKey)
	}
	var saved time.Duration
	if withSavings {
		saved = m.avoidedCost(call, e)
		ctx.Span.SetTagMillis("cim.saved_ms", saved)
	}
	e.hits.Add(1)
	e.savedNS.Add(int64(saved))
	m.ledger.credit(invKey, saved)
}

// Ledger returns the savings ledger snapshot: the per-invariant buckets,
// and a row for each cached call that has served.
func (m *Manager) Ledger() LedgerSnapshot {
	s := m.ledger.snapshot()
	s.Entries = []LedgerRow{}
	for _, e := range m.store.Snapshot() {
		if n := e.hits.Load(); n > 0 {
			s.Entries = append(s.Entries, LedgerRow{Key: e.key, Hits: n, Saved: time.Duration(e.savedNS.Load())})
		}
	}
	sortRows(s.Entries)
	return s
}

// FormatLedger renders the /debug/cim top-K table.
func FormatLedger(s LedgerSnapshot, k int) string {
	out := fmt.Sprintf("CIM savings ledger: %.1f ms avoided in total\n",
		float64(s.Total)/float64(time.Millisecond))
	table := func(title string, rows []LedgerRow) {
		out += "\n" + title + "\n"
		if len(rows) == 0 {
			out += "  (none)\n"
			return
		}
		out += fmt.Sprintf("  %10s %8s  %s\n", "saved_ms", "hits", "key")
		for i, r := range rows {
			if k > 0 && i >= k {
				out += fmt.Sprintf("  ... %d more\n", len(rows)-k)
				break
			}
			out += fmt.Sprintf("  %10.1f %8d  %s\n",
				float64(r.Saved)/float64(time.Millisecond), r.Hits, r.Key)
		}
	}
	table("top invariants by avoided cost:", s.Invariants)
	table("top cache entries by avoided cost:", s.Entries)
	return out
}

// DebugHandler serves the ledger as the /debug/cim text view, including
// the activity counters.
func (m *Manager) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		st := m.Stats()
		fmt.Fprintf(w, "CIM: %d entries, %d bytes; hits exact=%d equality=%d partial=%d, misses=%d, degraded=%d, evictions=%d\n\n",
			m.Len(), m.Bytes(), st.ExactHits, st.EqualityHits, st.PartialHits,
			st.Misses, st.DegradedServes, st.Evictions)
		fmt.Fprint(w, FormatLedger(m.Ledger(), 20))
	})
}
