package memo

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Format renders the cache state as text: the activity counters followed by
// the k most recently used entries, most recent first.
func (c *Cache) Format(k int) string {
	st := c.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "memo: %d entries, %d bytes\n", c.Len(), c.Bytes())
	fmt.Fprintf(&b, "hits=%d misses=%d stores=%d rejected=%d evictions=%d invalidations=%d\n",
		st.Hits, st.Misses, st.Stores, st.RejectedStores, st.Evictions, st.Invalidations)
	fmt.Fprintf(&b, "saved=%s\n", st.Saved.Round(time.Millisecond))

	// Stamps are read once, so a hit during the sort cannot reorder it.
	type row struct {
		e    *Entry
		used int64
	}
	var rows []row
	for _, e := range c.store.Snapshot() {
		rows = append(rows, row{e, e.lastUsed.Load()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].used > rows[j].used })
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	if len(rows) > 0 {
		fmt.Fprintf(&b, "\nmost recently used entries:\n")
	}
	for _, r := range rows {
		e := r.e
		fmt.Fprintf(&b, "  %4d tuples  %6dB  cost=%s  inputs=%d  %s\n",
			len(e.Tuples), e.Bytes, e.Cost.TAll.Round(time.Millisecond), len(e.Inputs), e.Key)
	}
	return b.String()
}

// DebugHandler serves the Format listing over HTTP (hermesd's /debug/memo).
func (c *Cache) DebugHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, c.Format(20))
	})
}
