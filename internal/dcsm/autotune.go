package dcsm

import "sort"

// The paper closes §6.2.2 with: "we can watch the access patterns for the
// tables and decide which tables are needed very frequently and decide to
// create these tables. Alternatively, drop the tables that are not
// accessed very often." This file implements that policy. Estimation
// counts, per (function, dimension set), how often a summary table served
// a lookup (SummaryTable.hits) and how often the raw database did
// (maskIndex.serves); AutoTune materializes tables for hot raw shapes and
// drops cold tables.

// TableHits returns the per-table serve counts since the last AutoTune.
func (db *DB) TableHits() map[string]int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := map[string]int{}
	for _, g := range db.groups {
		for _, t := range g.tables {
			if n := t.hits.Load(); n > 0 {
				out[t.key()] = int(n)
			}
		}
	}
	return out
}

// RawAggregations returns, per would-be table key, how many estimations
// the raw database served since the last AutoTune.
func (db *DB) RawAggregations() map[string]int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := map[string]int{}
	for k, g := range db.groups {
		for mask, ix := range g.indexes {
			if n := ix.serves.Load(); n > 0 {
				out[tableKey(k, maskDims(mask))] = int(n)
			}
		}
	}
	return out
}

// AutoTune applies the access-pattern policy: every dimension shape that
// served createThreshold or more estimates from the raw database gets a
// summary table materialized; every existing table with fewer than
// keepThreshold hits is dropped, except one created in this very pass.
// Counters reset afterwards. It returns the created and dropped table
// keys, sorted.
func (db *DB) AutoTune(createThreshold, keepThreshold int) (created, dropped []string, err error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	for k, g := range db.groups {
		fresh := map[uint64]bool{}
		for mask, ix := range g.indexes {
			if n := int(ix.serves.Swap(0)); n > 0 && n >= createThreshold {
				created = append(created, db.summarize(k, maskDims(mask)).key())
				fresh[mask] = true
			}
		}
		for mask, t := range g.tables {
			if int(t.hits.Swap(0)) < keepThreshold && !fresh[mask] {
				delete(g.tables, mask)
				dropped = append(dropped, t.key())
			}
		}
	}
	sort.Strings(created)
	sort.Strings(dropped)
	return created, dropped, nil
}
