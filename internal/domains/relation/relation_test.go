package relation

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

func newCtx() *domain.Ctx { return domain.NewCtx(vclock.NewVirtual(0)) }

func testDB(t *testing.T) *DB {
	t.Helper()
	db := New("ingres")
	inv := db.MustCreateTable(Schema{Name: "inventory", Cols: []Column{
		{Name: "item", Type: TString},
		{Name: "loc", Type: TString},
		{Name: "qty", Type: TInt},
	}})
	inv.MustInsert(term.Str("h-22 fuel"), term.Str("depot1"), term.Int(40))
	inv.MustInsert(term.Str("h-22 fuel"), term.Str("depot3"), term.Int(15))
	inv.MustInsert(term.Str("rations"), term.Str("depot1"), term.Int(500))
	inv.MustInsert(term.Str("rations"), term.Str("depot2"), term.Int(220))
	inv.MustInsert(term.Str("ammo"), term.Str("depot3"), term.Int(90))
	return db
}

func callVals(t *testing.T, db *DB, fn string, args ...term.Value) []term.Value {
	t.Helper()
	s, err := db.Call(newCtx(), fn, args)
	if err != nil {
		t.Fatalf("%s: %v", fn, err)
	}
	vals, err := domain.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestAll(t *testing.T) {
	db := testDB(t)
	vals := callVals(t, db, "all", term.Str("inventory"))
	if len(vals) != 5 {
		t.Fatalf("all = %d rows", len(vals))
	}
	rec := vals[0].(term.Record)
	if v, _ := rec.Get("item"); !term.Equal(v, term.Str("h-22 fuel")) {
		t.Errorf("first row = %v", rec)
	}
}

func TestEqualSelect(t *testing.T) {
	db := testDB(t)
	vals := callVals(t, db, "equal", term.Str("inventory"), term.Str("item"), term.Str("h-22 fuel"))
	if len(vals) != 2 {
		t.Fatalf("equal = %d rows, want 2", len(vals))
	}
	for _, v := range vals {
		item, _ := v.(term.Record).Get("item")
		if !term.Equal(item, term.Str("h-22 fuel")) {
			t.Errorf("wrong row %v", v)
		}
	}
	// Alias.
	vals2 := callVals(t, db, "select_eq", term.Str("inventory"), term.Str("item"), term.Str("h-22 fuel"))
	if len(vals2) != len(vals) {
		t.Error("select_eq differs from equal")
	}
	// No match.
	if vals := callVals(t, db, "equal", term.Str("inventory"), term.Str("item"), term.Str("nothing")); len(vals) != 0 {
		t.Errorf("no-match equal = %v", vals)
	}
}

func TestInequalitySelects(t *testing.T) {
	db := testDB(t)
	lt := callVals(t, db, "select_lt", term.Str("inventory"), term.Str("qty"), term.Int(90))
	if len(lt) != 2 { // 40, 15
		t.Errorf("select_lt(90) = %d rows, want 2", len(lt))
	}
	le := callVals(t, db, "select_le", term.Str("inventory"), term.Str("qty"), term.Int(90))
	if len(le) != 3 {
		t.Errorf("select_le(90) = %d rows, want 3", len(le))
	}
	gt := callVals(t, db, "select_gt", term.Str("inventory"), term.Str("qty"), term.Int(90))
	if len(gt) != 2 { // 500, 220
		t.Errorf("select_gt(90) = %d rows, want 2", len(gt))
	}
	ge := callVals(t, db, "select_ge", term.Str("inventory"), term.Str("qty"), term.Int(90))
	if len(ge) != 3 {
		t.Errorf("select_ge(90) = %d rows, want 3", len(ge))
	}
	// select_lt results come back ordered by the indexed column.
	prev := int64(-1)
	for _, v := range lt {
		q, _ := v.(term.Record).Get("qty")
		if int64(q.(term.Int)) < prev {
			t.Errorf("select_lt not ordered: %v", lt)
		}
		prev = int64(q.(term.Int))
	}
}

// Property: select_lt(v) ⊆ select_lt(w) for v <= w — the paper's subset
// invariant holds on the source itself.
func TestSelectLtMonotoneProperty(t *testing.T) {
	db := testDB(t)
	f := func(a, b uint8) bool {
		v, w := int64(a), int64(b)
		if v > w {
			v, w = w, v
		}
		small := callVals(t, db, "select_lt", term.Str("inventory"), term.Str("qty"), term.Int(v))
		large := callVals(t, db, "select_lt", term.Str("inventory"), term.Str("qty"), term.Int(w))
		keys := map[string]bool{}
		for _, r := range large {
			keys[r.Key()] = true
		}
		for _, r := range small {
			if !keys[r.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRangeSelect(t *testing.T) {
	db := testDB(t)
	vals := callVals(t, db, "range_", term.Str("inventory"), term.Str("qty"), term.Int(40), term.Int(220))
	if len(vals) != 3 { // 40, 90, 220
		t.Errorf("range_(40,220) = %d rows, want 3", len(vals))
	}
}

func TestCountAndProject(t *testing.T) {
	db := testDB(t)
	vals := callVals(t, db, "count", term.Str("inventory"))
	if len(vals) != 1 || !term.Equal(vals[0], term.Int(5)) {
		t.Errorf("count = %v", vals)
	}
	items := callVals(t, db, "project", term.Str("inventory"), term.Str("item"))
	if len(items) != 3 {
		t.Errorf("project item = %v, want 3 distinct", items)
	}
}

func TestTypeChecking(t *testing.T) {
	db := New("r")
	tab := db.MustCreateTable(Schema{Name: "t", Cols: []Column{
		{Name: "s", Type: TString}, {Name: "n", Type: TInt}, {Name: "f", Type: TFloat},
	}})
	if err := tab.Insert(term.Str("a"), term.Int(1), term.Float(1.5)); err != nil {
		t.Errorf("valid insert: %v", err)
	}
	// Int promotes into float columns.
	if err := tab.Insert(term.Str("a"), term.Int(1), term.Int(2)); err != nil {
		t.Errorf("int into float column: %v", err)
	}
	if err := tab.Insert(term.Int(1), term.Int(1), term.Float(0)); err == nil {
		t.Error("int into string column should fail")
	}
	if err := tab.Insert(term.Str("a"), term.Int(1)); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestSchemaErrors(t *testing.T) {
	db := New("r")
	if _, err := db.CreateTable(Schema{Name: "t"}); err == nil {
		t.Error("empty schema should fail")
	}
	if _, err := db.CreateTable(Schema{Name: "t", Cols: []Column{{Name: "a"}, {Name: "a"}}}); err == nil {
		t.Error("duplicate column should fail")
	}
	db.MustCreateTable(Schema{Name: "t", Cols: []Column{{Name: "a"}}})
	if _, err := db.CreateTable(Schema{Name: "t", Cols: []Column{{Name: "a"}}}); err == nil {
		t.Error("duplicate table should fail")
	}
}

func TestCallErrors(t *testing.T) {
	db := testDB(t)
	if _, err := db.Call(newCtx(), "nosuch", nil); err == nil {
		t.Error("unknown function should fail")
	}
	if _, err := db.Call(newCtx(), "all", []term.Value{term.Str("nosuch")}); err == nil {
		t.Error("unknown table should fail")
	}
	if _, err := db.Call(newCtx(), "equal", []term.Value{term.Str("inventory"), term.Str("nosuch"), term.Int(1)}); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := db.Call(newCtx(), "equal", []term.Value{term.Int(3), term.Str("item"), term.Int(1)}); err == nil {
		t.Error("non-string table arg should fail")
	}
	if _, err := db.Call(newCtx(), "all", nil); err == nil {
		t.Error("arity mismatch should fail")
	}
}

func TestInsertInvalidatesIndexes(t *testing.T) {
	db := testDB(t)
	before := callVals(t, db, "equal", term.Str("inventory"), term.Str("item"), term.Str("ammo"))
	tab, _ := db.Table("inventory")
	tab.MustInsert(term.Str("ammo"), term.Str("depot9"), term.Int(1))
	after := callVals(t, db, "equal", term.Str("inventory"), term.Str("item"), term.Str("ammo"))
	if len(after) != len(before)+1 {
		t.Errorf("index stale after insert: %d -> %d", len(before), len(after))
	}
}

func TestComputeCostCharged(t *testing.T) {
	db := testDB(t)
	ctx := newCtx()
	s, err := db.Call(ctx, "all", []term.Value{term.Str("inventory")})
	if err != nil {
		t.Fatal(err)
	}
	domain.Collect(s)
	if ctx.Clock.Now() < DefaultCostParams.PerCall {
		t.Errorf("clock not charged: %v", ctx.Clock.Now())
	}
}

func TestNativeEstimator(t *testing.T) {
	db := testDB(t)
	cv, missing, ok := db.EstimateCost(domain.Pattern{
		Domain: "ingres", Function: "equal",
		Args: []domain.PatternArg{
			domain.Const(term.Str("inventory")),
			domain.Const(term.Str("item")),
			domain.Bound,
		}})
	if !ok || len(missing) != 0 {
		t.Fatalf("estimate declined: ok=%v missing=%v", ok, missing)
	}
	// 5 rows, 3 distinct items -> card 5/3.
	if cv.Card < 1.5 || cv.Card > 1.8 {
		t.Errorf("card = %v, want ≈1.67", cv.Card)
	}
	if cv.TAll <= 0 || cv.TFirst <= 0 {
		t.Errorf("times = %v", cv)
	}
	// Unknown table: decline.
	if _, _, ok := db.EstimateCost(domain.Pattern{Domain: "ingres", Function: "all",
		Args: []domain.PatternArg{domain.Const(term.Str("nosuch"))}}); ok {
		t.Error("unknown table should decline")
	}
	// $b table argument: decline.
	if _, _, ok := db.EstimateCost(domain.Pattern{Domain: "ingres", Function: "all",
		Args: []domain.PatternArg{domain.Bound}}); ok {
		t.Error("$b table should decline")
	}
	// Wrong domain: decline.
	if _, _, ok := db.EstimateCost(domain.Pattern{Domain: "other", Function: "all",
		Args: []domain.PatternArg{domain.Const(term.Str("inventory"))}}); ok {
		t.Error("other domain should decline")
	}
}

func TestFunctionsSpec(t *testing.T) {
	db := New("r")
	specs := db.Functions()
	want := map[string]int{"all": 1, "equal": 3, "select_eq": 3, "select_lt": 3,
		"select_le": 3, "select_gt": 3, "select_ge": 3, "range_": 4, "count": 1, "project": 2}
	if len(specs) != len(want) {
		t.Fatalf("specs = %d, want %d", len(specs), len(want))
	}
	for _, s := range specs {
		if want[s.Name] != s.Arity {
			t.Errorf("%s arity = %d, want %d", s.Name, s.Arity, want[s.Name])
		}
	}
}

func TestCostParamsOverride(t *testing.T) {
	db := testDB(t)
	db.SetCostParams(CostParams{PerCall: time.Second})
	ctx := newCtx()
	s, _ := db.Call(ctx, "count", []term.Value{term.Str("inventory")})
	domain.Collect(s)
	if ctx.Clock.Now() != time.Second {
		t.Errorf("override not applied: %v", ctx.Clock.Now())
	}
}

// TestEqualAllocsPer: a row is boxed as a record once, at Insert, so an
// equality select allocates its stream and its answer list whatever the
// number of rows it returns.
func TestEqualAllocsPer(t *testing.T) {
	db := New("ingres")
	tbl := db.MustCreateTable(Schema{Name: "crew", Cols: []Column{{Name: "name", Type: TString}, {Name: "role", Type: TString}}})
	for i := 0; i < 40; i++ {
		role := "grip"
		if i == 0 {
			role = "gaffer"
		}
		tbl.MustInsert(term.Str(fmt.Sprintf("member %02d", i)), term.Str(role))
	}
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	for role, rows := range map[string]int{"gaffer": 1, "grip": 39} {
		args := []term.Value{term.Str("crew"), term.Str("role"), term.Str(role)}
		answers := 0
		n := testing.AllocsPerRun(100, func() {
			st, err := db.Call(ctx, "equal", args)
			if err != nil {
				t.Fatal(err)
			}
			for answers = 0; ; answers++ {
				if _, ok, _ := st.Next(); !ok {
					break
				}
			}
		})
		if answers != rows || n != 2 {
			t.Errorf("equal(crew, role, %s): %d rows allocate %v objects, want %d rows and 2", role, answers, n, rows)
		}
	}
}
