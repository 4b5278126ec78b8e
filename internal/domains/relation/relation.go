// Package relation implements an in-memory relational source domain: the
// stand-in for the INGRES / Paradox / DBase databases integrated by HERMES.
// It exposes the source functions the paper's mediators call (all, equal /
// select_eq, select_lt, select_le, select_gt, select_ge, range_, count,
// project) over typed tables with hash and ordered indexes, charges
// realistic per-row compute time against the execution clock, and ships a
// native catalog-based cost estimator to demonstrate the DCSM's
// extensibility hook ("if a domain already provides a cost estimation
// module, the DCSM can be connected to [it]").
package relation

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// ColType is a column type.
type ColType int

// Column types.
const (
	TString ColType = iota
	TInt
	TFloat
	TBool
)

func (t ColType) String() string {
	switch t {
	case TString:
		return "string"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	}
	return "?"
}

// accepts reports whether a value may be stored in a column of this type.
func (t ColType) accepts(v term.Value) bool {
	switch t {
	case TString:
		return v.Kind() == term.KindString
	case TInt:
		return v.Kind() == term.KindInt
	case TFloat:
		return v.Kind() == term.KindFloat || v.Kind() == term.KindInt
	case TBool:
		return v.Kind() == term.KindBool
	}
	return false
}

// Column describes one attribute of a table.
type Column struct {
	Name string
	Type ColType
}

// Schema describes a table.
type Schema struct {
	Name string
	Cols []Column
}

// Col returns the index of the named column.
func (s Schema) Col(name string) (int, bool) {
	for i, c := range s.Cols {
		if c.Name == name {
			return i, true
		}
	}
	return -1, false
}

// Row is one tuple of a table, positionally matching the schema.
type Row []term.Value

// Table is a heap of rows plus lazily built indexes.
type Table struct {
	schema Schema
	rows   []Row
	// idxMu guards the lazily built indexes: index construction happens
	// inside Call, which holds only the DB's read lock, so parallel query
	// branches probing the same cold column would otherwise race.
	idxMu sync.Mutex
	// hashIdx[col][valueKey] lists row indices with that column value.
	hashIdx map[int]map[string][]int
	// sortedIdx[col] lists row indices ordered by column value.
	sortedIdx map[int][]int
}

// Len returns the row count.
func (t *Table) Len() int { return len(t.rows) }

// Insert appends a row after type-checking it against the schema. Indexes
// are invalidated and rebuilt lazily.
func (t *Table) Insert(vals ...term.Value) error {
	if len(vals) != len(t.schema.Cols) {
		return fmt.Errorf("table %s: inserted %d values, schema has %d columns",
			t.schema.Name, len(vals), len(t.schema.Cols))
	}
	for i, v := range vals {
		if !t.schema.Cols[i].Type.accepts(v) {
			return fmt.Errorf("table %s: column %s is %s, got %s value %s",
				t.schema.Name, t.schema.Cols[i].Name, t.schema.Cols[i].Type, v.Kind(), v)
		}
	}
	t.rows = append(t.rows, Row(vals))
	t.idxMu.Lock()
	t.hashIdx = nil
	t.sortedIdx = nil
	t.idxMu.Unlock()
	return nil
}

// MustInsert inserts or panics; a convenience for dataset construction.
func (t *Table) MustInsert(vals ...term.Value) {
	if err := t.Insert(vals...); err != nil {
		panic(err)
	}
}

// record converts a row into a term.Record keyed by column names.
func (t *Table) record(r Row) term.Record {
	fields := make([]term.Field, len(r))
	for i, v := range r {
		fields[i] = term.Field{Name: t.schema.Cols[i].Name, Val: v}
	}
	return term.NewRecord(fields...)
}

func (t *Table) ensureHashIdx(col int) map[string][]int {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.hashIdx == nil {
		t.hashIdx = make(map[int]map[string][]int)
	}
	if idx, ok := t.hashIdx[col]; ok {
		return idx
	}
	idx := make(map[string][]int)
	for i, r := range t.rows {
		k := r[col].Key()
		idx[k] = append(idx[k], i)
	}
	t.hashIdx[col] = idx
	return idx
}

func (t *Table) ensureSortedIdx(col int) []int {
	t.idxMu.Lock()
	defer t.idxMu.Unlock()
	if t.sortedIdx == nil {
		t.sortedIdx = make(map[int][]int)
	}
	if idx, ok := t.sortedIdx[col]; ok {
		return idx
	}
	idx := make([]int, len(t.rows))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		c, err := term.Compare(t.rows[idx[a]][col], t.rows[idx[b]][col])
		return err == nil && c < 0
	})
	t.sortedIdx[col] = idx
	return idx
}

// distinctCount returns the number of distinct values of a column (catalog
// statistic for the native estimator).
func (t *Table) distinctCount(col int) int {
	return len(t.ensureHashIdx(col))
}

// CostParams model the source's local compute costs.
type CostParams struct {
	// PerCall is the fixed per-query overhead (parse, plan).
	PerCall time.Duration
	// PerRowScan is charged per row touched by a scan.
	PerRowScan time.Duration
	// PerRowResult is charged per row produced.
	PerRowResult time.Duration
	// IndexProbe is charged per index lookup.
	IndexProbe time.Duration
}

// DefaultCostParams are small, database-like constants; network cost
// dominates for remote sites.
var DefaultCostParams = CostParams{
	PerCall:      2 * time.Millisecond,
	PerRowScan:   4 * time.Microsecond,
	PerRowResult: 2 * time.Microsecond,
	IndexProbe:   8 * time.Microsecond,
}

// DB is a relational source domain holding named tables.
type DB struct {
	name   string
	params CostParams

	mu     sync.RWMutex
	tables map[string]*Table
}

// New creates an empty relational domain with the given mediator-visible
// name (e.g. "ingres", "relation").
func New(name string) *DB {
	return &DB{name: name, params: DefaultCostParams, tables: make(map[string]*Table)}
}

// SetCostParams overrides the compute cost model.
func (db *DB) SetCostParams(p CostParams) { db.params = p }

// CreateTable registers a new table.
func (db *DB) CreateTable(s Schema) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[s.Name]; dup {
		return nil, fmt.Errorf("table %q already exists", s.Name)
	}
	if len(s.Cols) == 0 {
		return nil, fmt.Errorf("table %q has no columns", s.Name)
	}
	seen := map[string]bool{}
	for _, c := range s.Cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("table %q: duplicate column %q", s.Name, c.Name)
		}
		seen[c.Name] = true
	}
	t := &Table{schema: s}
	db.tables[s.Name] = t
	return t, nil
}

// MustCreateTable creates a table or panics; for dataset construction.
func (db *DB) MustCreateTable(s Schema) *Table {
	t, err := db.CreateTable(s)
	if err != nil {
		panic(err)
	}
	return t
}

// Table returns a registered table.
func (db *DB) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[name]
	return t, ok
}

// Name implements domain.Domain.
func (db *DB) Name() string { return db.name }

// Functions implements domain.Domain.
func (db *DB) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{
		{Name: "all", Arity: 1, Doc: "all(table): every row as a record"},
		{Name: "equal", Arity: 3, Doc: "equal(table, attr, v): rows with attr = v"},
		{Name: "select_eq", Arity: 3, Doc: "alias of equal"},
		{Name: "select_lt", Arity: 3, Doc: "select_lt(table, attr, v): rows with attr < v"},
		{Name: "select_le", Arity: 3, Doc: "rows with attr <= v"},
		{Name: "select_gt", Arity: 3, Doc: "rows with attr > v"},
		{Name: "select_ge", Arity: 3, Doc: "rows with attr >= v"},
		{Name: "range_", Arity: 4, Doc: "range_(table, attr, lo, hi): rows with lo <= attr <= hi"},
		{Name: "count", Arity: 1, Doc: "count(table): row count"},
		{Name: "project", Arity: 2, Doc: "project(table, attr): distinct attr values"},
	}
}

func argString(args []term.Value, i int) (string, error) {
	s, ok := args[i].(term.Str)
	if !ok {
		return "", fmt.Errorf("argument %d must be a string, got %s", i+1, args[i])
	}
	return string(s), nil
}

// resolve finds the table and column named by args[0], args[1].
func (db *DB) resolve(args []term.Value) (*Table, int, error) {
	tname, err := argString(args, 0)
	if err != nil {
		return nil, 0, err
	}
	t, ok := db.Table(tname)
	if !ok {
		return nil, 0, fmt.Errorf("no table %q in domain %s", tname, db.name)
	}
	cname, err := argString(args, 1)
	if err != nil {
		return nil, 0, err
	}
	col, ok := t.schema.Col(cname)
	if !ok {
		return nil, 0, fmt.Errorf("table %q has no column %q", tname, cname)
	}
	return t, col, nil
}

// Call implements domain.Domain.
func (db *DB) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	ctx.Clock.Sleep(db.params.PerCall)
	switch fn {
	case "all":
		if len(args) != 1 {
			return nil, fmt.Errorf("all/1 called with %d args", len(args))
		}
		tname, err := argString(args, 0)
		if err != nil {
			return nil, err
		}
		t, ok := db.tables[tname]
		if !ok {
			return nil, fmt.Errorf("no table %q in domain %s", tname, db.name)
		}
		out := make([]term.Value, len(t.rows))
		for i, r := range t.rows {
			out[i] = t.record(r)
		}
		ctx.Clock.Sleep(time.Duration(len(t.rows)) * (db.params.PerRowScan + db.params.PerRowResult))
		return domain.NewSliceStream(out), nil

	case "equal", "select_eq":
		if len(args) != 3 {
			return nil, fmt.Errorf("%s/3 called with %d args", fn, len(args))
		}
		t, col, err := db.resolve(args)
		if err != nil {
			return nil, err
		}
		idx := t.ensureHashIdx(col)
		ctx.Clock.Sleep(db.params.IndexProbe)
		hits := idx[args[2].Key()]
		out := make([]term.Value, len(hits))
		for i, ri := range hits {
			out[i] = t.record(t.rows[ri])
		}
		ctx.Clock.Sleep(time.Duration(len(hits)) * db.params.PerRowResult)
		return domain.NewSliceStream(out), nil

	case "select_lt", "select_le", "select_gt", "select_ge":
		if len(args) != 3 {
			return nil, fmt.Errorf("%s/3 called with %d args", fn, len(args))
		}
		t, col, err := db.resolve(args)
		if err != nil {
			return nil, err
		}
		return db.rangeScan(ctx, t, col, fn, args[2], nil)

	case "range_":
		if len(args) != 4 {
			return nil, fmt.Errorf("range_/4 called with %d args", len(args))
		}
		t, col, err := db.resolve(args)
		if err != nil {
			return nil, err
		}
		return db.rangeScan(ctx, t, col, fn, args[2], args[3])

	case "count":
		if len(args) != 1 {
			return nil, fmt.Errorf("count/1 called with %d args", len(args))
		}
		tname, err := argString(args, 0)
		if err != nil {
			return nil, err
		}
		t, ok := db.tables[tname]
		if !ok {
			return nil, fmt.Errorf("no table %q in domain %s", tname, db.name)
		}
		return domain.NewSliceStream([]term.Value{term.Int(len(t.rows))}), nil

	case "project":
		if len(args) != 2 {
			return nil, fmt.Errorf("project/2 called with %d args", len(args))
		}
		t, col, err := db.resolve(args)
		if err != nil {
			return nil, err
		}
		idx := t.ensureSortedIdx(col)
		ctx.Clock.Sleep(time.Duration(len(t.rows)) * db.params.PerRowScan)
		var out []term.Value
		var lastKey string
		for _, ri := range idx {
			v := t.rows[ri][col]
			if k := v.Key(); k != lastKey || len(out) == 0 {
				out = append(out, v)
				lastKey = k
			}
		}
		ctx.Clock.Sleep(time.Duration(len(out)) * db.params.PerRowResult)
		return domain.NewSliceStream(out), nil
	}
	return nil, fmt.Errorf("%w: %s:%s", domain.ErrUnknownFunction, db.name, fn)
}

// rangeScan serves the inequality selects via the ordered index.
func (db *DB) rangeScan(ctx *domain.Ctx, t *Table, col int, fn string, bound, hi term.Value) (domain.Stream, error) {
	idx := t.ensureSortedIdx(col)
	ctx.Clock.Sleep(db.params.IndexProbe)
	matches := func(v term.Value) (bool, error) {
		switch fn {
		case "select_lt":
			return term.OpLT.Holds(v, bound)
		case "select_le":
			return term.OpLE.Holds(v, bound)
		case "select_gt":
			return term.OpGT.Holds(v, bound)
		case "select_ge":
			return term.OpGE.Holds(v, bound)
		case "range_":
			ge, err := term.OpGE.Holds(v, bound)
			if err != nil || !ge {
				return false, err
			}
			return term.OpLE.Holds(v, hi)
		}
		return false, fmt.Errorf("bad range function %q", fn)
	}
	var out []term.Value
	scanned := 0
	for _, ri := range idx {
		scanned++
		ok, err := matches(t.rows[ri][col])
		if err != nil {
			return nil, fmt.Errorf("%s on table %s: %w", fn, t.schema.Name, err)
		}
		if ok {
			out = append(out, t.record(t.rows[ri]))
		}
	}
	ctx.Clock.Sleep(time.Duration(scanned)*db.params.PerRowScan +
		time.Duration(len(out))*db.params.PerRowResult)
	return domain.NewSliceStream(out), nil
}
