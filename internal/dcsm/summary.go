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
	weights
	next int32 // next row whose dimension values hash alike, -1 at the end
}

// vector is the estimate the row stands for, gaps filled as raw
// aggregation fills them.
func (r *SummaryRow) vector() (domain.CostVector, bool) {
	return r.estimate(domain.CostVector{TFirst: r.AvgTf, TAll: r.AvgTa, Card: r.AvgCard})
}

// SummaryTable is a (possibly lossy) summarization of a function's cost
// vector database over a chosen dimension set. Rows are found as a
// maskIndex finds its rows: by hashTuple at Dims, then term.Equal.
type SummaryTable struct {
	Domain   string
	Function string
	Arity    int
	// Dims are the argument positions kept as dimensions, ascending. All
	// positions = lossless summarization; fewer = lossy.
	Dims  []int
	heads map[uint64]int32 // hash of a row's values at Dims -> its newest row
	rows  []SummaryRow
	// BuiltAt is the clock reading when the table was (re)built.
	BuiltAt time.Duration
	// hits counts the estimates this table served since the last AutoTune.
	hits atomic.Int64
}

func newTable(k funcKey, dims []int, builtAt time.Duration) *SummaryTable {
	return &SummaryTable{Domain: k.domain, Function: k.function, Arity: k.arity, Dims: dims,
		heads: make(map[uint64]int32), BuiltAt: builtAt}
}

func (t *SummaryTable) key() string {
	return tableKey(funcKey{t.Domain, t.Function, t.Arity}, t.Dims)
}

// find returns the row whose dimension values equal args at the table's
// dimensions, or -1, and the head of the chain h hashes to (-1 when there
// is none). args is indexed by argument position.
func (t *SummaryTable) find(h uint64, args []term.Value) (row, head int32) {
	head, ok := t.heads[h]
	if !ok {
		return -1, -1
	}
	for row = head; row >= 0; row = t.rows[row].next {
		match := true
		for j := 0; j < len(t.Dims) && match; j++ {
			match = term.Equal(t.rows[row].DimVals[j], args[t.Dims[j]])
		}
		if match {
			return row, head
		}
	}
	return -1, head
}

// row returns the row for args' values at the table's dimensions, adding
// an empty one on first sight; added reports that. argHashes are the
// hashes of args.
func (t *SummaryTable) row(args []term.Value, argHashes []uint64) (row int32, added bool) {
	h := hashTuple(dimsMask(t.Dims), argHashes)
	row, head := t.find(h, args)
	if row >= 0 {
		return row, false
	}
	dimVals := make([]term.Value, len(t.Dims))
	for j, d := range t.Dims {
		dimVals[j] = args[d]
	}
	t.heads[h] = int32(len(t.rows))
	t.rows = append(t.rows, SummaryRow{DimVals: dimVals, next: head})
	return int32(len(t.rows) - 1), true
}

// Rows returns the table's rows ordered by dimension values (stable for
// display and golden tests).
func (t *SummaryTable) Rows() []*SummaryRow {
	out := make([]*SummaryRow, len(t.rows))
	for i := range t.rows {
		out[i] = &t.rows[i]
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

// rowKey orders rows for display.
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

// summarize builds and registers the table over normalized dims: the
// records are folded per row, in recording order, exactly as raw
// aggregation folds them, and each row divides once. The caller holds the
// write lock.
func (db *DB) summarize(k funcKey, nd []int) *SummaryTable {
	g := db.group(k)
	now := db.now()
	t := newTable(k, nd, now)
	var folds []fold
	var buf [8]uint64
	for i := range g.recs {
		rec := &g.recs[i]
		row, added := t.row(rec.Call.Args, hashArgs(buf[:0], rec.Call.Args))
		if added {
			folds = append(folds, fold{})
		}
		folds[row].add(rec, db.weight(rec, now))
		t.rows[row].L++
	}
	for i := range folds {
		r, f := &t.rows[i], &folds[i]
		cv := f.mean()
		r.AvgTf, r.AvgTa, r.AvgCard, r.weights = cv.TFirst, cv.TAll, cv.Card, f.weights
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

// tables lists all registered summary tables, ordered by table key. The
// caller holds the lock.
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
