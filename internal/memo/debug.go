package memo

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"
)

// entryView is a scored snapshot row for the debug listing.
type entryView struct {
	e     *Entry
	score float64
}

// Format renders the cache state as text: the activity counters followed by
// the top-k entries by decayed benefit score.
func (c *Cache) Format(k int) string {
	st := c.Stats()
	var b strings.Builder
	fmt.Fprintf(&b, "memo: %d entries, %d bytes\n", c.Len(), c.Bytes())
	fmt.Fprintf(&b, "hits=%d misses=%d stores=%d rejected=%d evictions=%d invalidations=%d\n",
		st.Hits, st.Misses, st.Stores, st.RejectedStores, st.Evictions, st.Invalidations)
	fmt.Fprintf(&b, "saved=%s\n", st.Saved.Round(time.Millisecond))

	now := c.tick.Load()
	entries := c.store.Snapshot()
	views := make([]entryView, 0, len(entries))
	c.scoreMu.Lock()
	for _, e := range entries {
		views = append(views, entryView{e: e, score: c.decayedScoreLocked(e, now)})
	}
	c.scoreMu.Unlock()
	sort.Slice(views, func(i, j int) bool {
		if views[i].score != views[j].score {
			return views[i].score > views[j].score
		}
		return views[i].e.Key < views[j].e.Key
	})
	if k > 0 && len(views) > k {
		views = views[:k]
	}
	if len(views) > 0 {
		fmt.Fprintf(&b, "\ntop entries by decayed benefit:\n")
	}
	for _, v := range views {
		fmt.Fprintf(&b, "  %8.1f  %4d tuples  %6dB  cost=%s  inputs=%d  %s\n",
			v.score, len(v.e.Tuples), v.e.Bytes,
			v.e.Cost.TAll.Round(time.Millisecond), len(v.e.Inputs), v.e.Key)
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
