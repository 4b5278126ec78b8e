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
	"hermes/internal/obs"
)

// ExactKey is the ledger attribution key for exact cache hits (hits
// that needed no invariant).
const ExactKey = "(exact)"

// MemoBucket is the ledger attribution key under which rule-level memo
// hits are credited in the per-invariant view: the memo sits above the
// CIM, so its savings share the ledger but get their own bucket instead
// of masquerading as an invariant.
const MemoBucket = "(memo)"

// LedgerRow is one attribution bucket: an invariant (or ExactKey) in
// the per-invariant view, a cached call in the per-entry view.
type LedgerRow struct {
	Key   string        `json:"key"`
	Hits  int64         `json:"hits"`
	Saved time.Duration `json:"saved"`
}

// LedgerSnapshot is the savings ledger at a point in time. Rows are
// sorted by avoided cost (descending), then hits, then key.
type LedgerSnapshot struct {
	Total      time.Duration `json:"total"`
	Invariants []LedgerRow   `json:"invariants"`
	Entries    []LedgerRow   `json:"entries"`
}

// ledger accumulates the attribution buckets. Rows survive cache
// eviction: this is a ledger of what already happened, not an index of
// what is cached now.
type ledger struct {
	mu          sync.Mutex
	total       time.Duration
	byInvariant map[string]*LedgerRow
	byEntry     map[string]*LedgerRow
}

func (l *ledger) credit(invKey, entryKey string, saved time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.byInvariant == nil {
		l.byInvariant = make(map[string]*LedgerRow)
		l.byEntry = make(map[string]*LedgerRow)
	}
	bump := func(m map[string]*LedgerRow, key string) {
		r := m[key]
		if r == nil {
			r = &LedgerRow{Key: key}
			m[key] = r
		}
		r.Hits++
		r.Saved += saved
	}
	bump(l.byInvariant, invKey)
	bump(l.byEntry, entryKey)
	l.total += saved
}

func sortRows(m map[string]*LedgerRow) []LedgerRow {
	rows := make([]LedgerRow, 0, len(m))
	for _, r := range m {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Saved != rows[j].Saved {
			return rows[i].Saved > rows[j].Saved
		}
		if rows[i].Hits != rows[j].Hits {
			return rows[i].Hits > rows[j].Hits
		}
		return rows[i].Key < rows[j].Key
	})
	return rows
}

// restore replaces the ledger contents with a persisted snapshot, so
// savings attribution survives a mediator restart alongside the cache.
func (l *ledger) restore(s LedgerSnapshot) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.total = s.Total
	l.byInvariant = make(map[string]*LedgerRow, len(s.Invariants))
	l.byEntry = make(map[string]*LedgerRow, len(s.Entries))
	for _, r := range s.Invariants {
		row := r
		l.byInvariant[r.Key] = &row
	}
	for _, r := range s.Entries {
		row := r
		l.byEntry[r.Key] = &row
	}
}

func (l *ledger) snapshot() LedgerSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	return LedgerSnapshot{
		Total:      l.total,
		Invariants: sortRows(l.byInvariant),
		Entries:    sortRows(l.byEntry),
	}
}

// SetCostModel installs the estimator used to price the source call a
// cache hit avoided; the mediator wires it to the DCSM. Without one (or
// when the model has no estimate) the serving entry's observed source
// cost is used instead.
func (m *Manager) SetCostModel(fn func(domain.Pattern) (domain.CostVector, bool)) {
	m.hookMu.Lock()
	defer m.hookMu.Unlock()
	m.costModel = fn
}

func (m *Manager) costModelHook() func(domain.Pattern) (domain.CostVector, bool) {
	m.hookMu.RLock()
	defer m.hookMu.RUnlock()
	return m.costModel
}

// avoidedCost prices the source call a hit skipped: the DCSM estimate
// for the requested call when available, else the serving entry's
// observed cost.
func (m *Manager) avoidedCost(call domain.Call, e *Entry) time.Duration {
	if model := m.costModelHook(); model != nil {
		if cv, ok := model(domain.PatternOf(call)); ok && cv.TAll > 0 {
			return cv.TAll
		}
	}
	return e.Cost.TAll
}

// credit records one cache serve in the ledger. withSavings is true
// when the serve genuinely replaced a source call (exact and equality
// hits); partial and degraded serves count hits only — a partial hit
// still issues the actual call, and a degraded serve had no working
// source to avoid. Invariant hits bump the per-invariant counter and
// tag the span; savings additionally tag cim.saved_ms so a trace's
// per-span avoided costs sum to the ledger total.
func (m *Manager) credit(ctx *domain.Ctx, call domain.Call, e *Entry, inv *lang.Invariant, withSavings bool) {
	invKey := ExactKey
	if inv != nil {
		invKey = inv.String()
		m.hookMu.RLock()
		r := m.metrics
		m.hookMu.RUnlock()
		r.Counter("hermes_cim_invariant_hits_total", "invariant", invKey).Inc()
		ctx.Span.SetTag("invariant", invKey)
	}
	var saved time.Duration
	if withSavings {
		saved = m.avoidedCost(call, e)
		m.savedNS.Add(int64(saved))
		ctx.Span.SetTag("cim.saved_ms", obs.FormatMillis(saved))
	}
	m.ledger.credit(invKey, e.key, saved)
}

// CreditMemo records one rule-level memo hit in the savings ledger under
// the MemoBucket invariant bucket, attributed to the memo entry's key in
// the per-entry view. The memo's own hermes_memo_saved_ms_total counter
// tracks the metric side; this keeps the unified "what did caching earn"
// ledger complete.
func (m *Manager) CreditMemo(entryKey string, saved time.Duration) {
	m.ledger.credit(MemoBucket, entryKey, saved)
}

// Ledger returns the savings ledger snapshot.
func (m *Manager) Ledger() LedgerSnapshot { return m.ledger.snapshot() }

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
