package cim

import (
	"fmt"
	"net/http"
	"time"

	"hermes/internal/lang"
)

// InvariantsHandler serves the /debug/invariants text view: the
// discrimination index's buckets (what a probe for each call shape would
// consider) joined with the savings ledger's per-invariant earnings, so
// an operator can see both how selective the index is and which
// invariants actually pay for themselves.
func (m *Manager) InvariantsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		buckets := m.idx.Buckets()
		earned := make(map[string]LedgerRow)
		for _, row := range m.Ledger().Invariants {
			earned[row.Key] = row
		}
		fmt.Fprintf(w, "invariant index: %d invariants in %d buckets\n", m.idx.Len(), len(buckets))
		line := func(kind string, inv *lang.Invariant) {
			key := inv.String()
			if row, ok := earned[key]; ok {
				fmt.Fprintf(w, "  %s %s  [hits=%d saved_ms=%.1f]\n", kind, key,
					row.Hits, float64(row.Saved)/float64(time.Millisecond))
				return
			}
			fmt.Fprintf(w, "  %s %s\n", kind, key)
		}
		for _, b := range buckets {
			fmt.Fprintf(w, "\n%s: %d equalities, %d supersets, %d shapes, %d cached calls\n",
				b.Key, len(b.Equalities), len(b.Supersets), b.Shapes, b.CachedCalls)
			for _, inv := range b.Equalities {
				line("=", inv)
			}
			for _, inv := range b.Supersets {
				line(">=", inv)
			}
		}
	})
}
