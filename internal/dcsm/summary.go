package dcsm

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// SummaryRow is one aggregated tuple of a summary table: average metrics
// over the original records sharing the row's dimension values, plus the
// paper's l attribute (how many original tuples were aggregated).
type SummaryRow struct {
	DimVals []term.Value
	AvgTf   time.Duration
	AvgTa   time.Duration
	AvgCard float64
	L       int
	// per-metric contribution weights (records may miss components).
	wTf, wTa, wCard float64
}

// SummaryTable is a (possibly lossy) summarization of a function's cost
// vector database over a chosen dimension set.
type SummaryTable struct {
	Domain   string
	Function string
	Arity    int
	// Dims are the argument positions kept as dimensions, ascending. All
	// positions = lossless summarization; fewer = lossy.
	Dims []int
	rows map[string]*SummaryRow
	// BuiltAt is the clock reading when the table was (re)built.
	BuiltAt time.Duration
	// hits counts the estimates this table served since the last AutoTune.
	hits atomic.Int64
}

func (t *SummaryTable) key() string {
	return tableKey(funcKey{t.Domain, t.Function, t.Arity}, t.Dims)
}

// Rows returns the table's rows ordered by dimension values (stable for
// display and golden tests).
func (t *SummaryTable) Rows() []*SummaryRow {
	out := make([]*SummaryRow, 0, len(t.rows))
	for _, r := range t.rows {
		out = append(out, r)
	}
	sort.Slice(out, func(a, b int) bool {
		return rowKey(out[a].DimVals) < rowKey(out[b].DimVals)
	})
	return out
}

// Len returns the number of rows.
func (t *SummaryTable) Len() int { return len(t.rows) }

// Lossless reports whether the table keeps every argument position as a
// dimension.
func (t *SummaryTable) Lossless() bool { return len(t.Dims) == t.Arity }

// String renders the table like the paper's figures: a header naming the
// kept dimensions, then one line per row with Card, Ta and l.
func (t *SummaryTable) String() string {
	var b strings.Builder
	cols := make([]string, 0, len(t.Dims)+3)
	for _, d := range t.Dims {
		cols = append(cols, fmt.Sprintf("arg%d", d+1))
	}
	cols = append(cols, "Card", "T_a(ms)", "l")
	fmt.Fprintf(&b, "%s:%s/%d dims=[%s]\n", t.Domain, t.Function, t.Arity, dimsKey(t.Dims))
	b.WriteString(strings.Join(cols, "\t"))
	b.WriteByte('\n')
	for _, r := range t.Rows() {
		parts := make([]string, 0, len(cols))
		for _, v := range r.DimVals {
			parts = append(parts, v.String())
		}
		parts = append(parts,
			fmt.Sprintf("%.2f", r.AvgCard),
			fmt.Sprintf("%.2f", float64(r.AvgTa)/float64(time.Millisecond)),
			fmt.Sprintf("%d", r.L))
		b.WriteString(strings.Join(parts, "\t"))
		b.WriteByte('\n')
	}
	return b.String()
}

func rowKey(vals []term.Value) string {
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = v.Key()
	}
	return strings.Join(parts, "|")
}

// Summarize builds (or rebuilds) a summary table for domain:function/arity
// over the given dimension positions and registers it for estimation. It
// aggregates the current raw cost vector database; records with missing
// components contribute only their valid metrics.
func (db *DB) Summarize(dom, fn string, arity int, dims []int) (*SummaryTable, error) {
	k := funcKey{dom, fn, arity}
	nd, err := normalizeDims(dims, arity)
	if err != nil {
		return nil, fmt.Errorf("summarize %s: %w", k, err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.summarize(k, nd), nil
}

// summarize builds and registers the table over normalized dims. The
// caller holds the write lock.
func (db *DB) summarize(k funcKey, nd []int) *SummaryTable {
	g := db.group(k)
	now := db.now()
	t := &SummaryTable{Domain: k.domain, Function: k.function, Arity: k.arity, Dims: nd,
		rows: make(map[string]*SummaryRow), BuiltAt: now}
	for r := range g.recs {
		rec := &g.recs[r]
		dimVals := make([]term.Value, len(nd))
		for i, d := range nd {
			dimVals[i] = rec.Call.Args[d]
		}
		rk := rowKey(dimVals)
		row, ok := t.rows[rk]
		if !ok {
			row = &SummaryRow{DimVals: dimVals}
			t.rows[rk] = row
		}
		w := db.weight(rec, now)
		row.L++
		if rec.HasTf {
			row.AvgTf = weightedMean(row.AvgTf, row.wTf, rec.Cost.TFirst, w)
			row.wTf += w
		}
		if rec.HasTa {
			row.AvgTa = weightedMean(row.AvgTa, row.wTa, rec.Cost.TAll, w)
			row.wTa += w
		}
		if rec.HasCard {
			row.AvgCard = weightedMeanF(row.AvgCard, row.wCard, rec.Cost.Card, w)
			row.wCard += w
		}
	}
	g.setTable(t)
	return t
}

// setTable registers a table under its dimension mask. Replacing a table
// refreshes the snapshot, not its access history.
func (g *group) setTable(t *SummaryTable) {
	if g.tables == nil {
		g.tables = make(map[uint64]*SummaryTable)
	}
	mask := dimsMask(t.Dims)
	if old := g.tables[mask]; old != nil {
		t.hits.Store(old.hits.Load())
	}
	g.tables[mask] = t
}

// weightedMean folds a new duration observation into a running weighted
// mean.
func weightedMean(mean time.Duration, wSum float64, x time.Duration, w float64) time.Duration {
	return time.Duration(weightedMeanF(float64(mean), wSum, float64(x), w))
}

func weightedMeanF(mean, wSum, x, w float64) float64 {
	if wSum+w == 0 {
		return 0
	}
	return (mean*wSum + x*w) / (wSum + w)
}

// SummarizeLossless builds the lossless summary: every argument position
// kept as a dimension (§6.2.1).
func (db *DB) SummarizeLossless(dom, fn string, arity int) (*SummaryTable, error) {
	dims := make([]int, arity)
	for i := range dims {
		dims[i] = i
	}
	return db.Summarize(dom, fn, arity, dims)
}

// SummarizeFullyLossy builds the single-row table: no dimensions, the
// grand average of all records — the "drop all attributes" tables used in
// the paper's Figure 6 lossy configuration.
func (db *DB) SummarizeFullyLossy(dom, fn string, arity int) (*SummaryTable, error) {
	return db.Summarize(dom, fn, arity, nil)
}

// Table returns the registered summary table with the given dimensions.
func (db *DB) Table(dom, fn string, arity int, dims []int) (*SummaryTable, bool) {
	nd, err := normalizeDims(dims, arity)
	if err != nil {
		return nil, false
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.view(funcKey{dom, fn, arity}).tables[dimsMask(nd)]
	return t, ok
}

// DropTable removes a summary table ("drop the tables that are not
// accessed very often").
func (db *DB) DropTable(dom, fn string, arity int, dims []int) {
	nd, err := normalizeDims(dims, arity)
	if err != nil {
		return
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if g := db.groups[funcKey{dom, fn, arity}]; g != nil {
		delete(g.tables, dimsMask(nd))
	}
}

// Tables lists all registered summary tables, ordered by table key.
func (db *DB) Tables() []*SummaryTable {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables()
}

func (db *DB) tables() []*SummaryTable {
	var out []*SummaryTable
	for _, g := range db.groups {
		for _, t := range g.tables {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].key() < out[b].key() })
	return out
}

// lookupRow probes a summary table for the row matching a pattern's
// constants at the table's dimension positions. Every dimension must be a
// known constant in the pattern.
func (t *SummaryTable) lookupRow(p domain.Pattern) (*SummaryRow, bool) {
	vals := make([]term.Value, len(t.Dims))
	for i, d := range t.Dims {
		if d >= len(p.Args) || !p.Args[d].Known {
			return nil, false
		}
		vals[i] = p.Args[d].Val
	}
	r, ok := t.rows[rowKey(vals)]
	return r, ok
}
