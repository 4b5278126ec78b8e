package flatfile

import (
	"testing"

	"hermes/internal/domain"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

func newCtx() *domain.Ctx { return domain.NewCtx(vclock.NewVirtual(0)) }

var newsLines = []string{
	"date|source|headline",
	"1995-03-01|usa today|market rallies on rate cut hopes",
	"1995-03-02|usa today|floods hit the midwest",
	"1995-03-02|ap|senate passes budget bill",
	"",
	"1995-03-03|usa today|local team wins championship",
}

func memStore() *Store {
	s := New("files")
	s.RegisterContent("news", newsLines)
	return s
}

func callVals(t *testing.T, s *Store, fn string, args ...term.Value) []term.Value {
	t.Helper()
	st, err := s.Call(newCtx(), fn, args)
	if err != nil {
		t.Fatalf("%s: %v", fn, err)
	}
	vals, err := domain.Collect(st)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestScan(t *testing.T) {
	s := memStore()
	vals := callVals(t, s, "scan", term.Str("news"))
	if len(vals) != 4 { // blank line skipped
		t.Fatalf("scan = %d records", len(vals))
	}
	rec := vals[0].(term.Record)
	src, _ := rec.Get("source")
	if !term.Equal(src, term.Str("usa today")) {
		t.Errorf("record = %v", rec)
	}
}

func TestGrep(t *testing.T) {
	s := memStore()
	vals := callVals(t, s, "grep", term.Str("news"), term.Str("source"), term.Str("usa today"))
	if len(vals) != 3 {
		t.Errorf("grep = %d, want 3", len(vals))
	}
	vals = callVals(t, s, "grep", term.Str("news"), term.Str("source"), term.Str("nosuch"))
	if len(vals) != 0 {
		t.Errorf("no-match grep = %v", vals)
	}
}

func TestGrepSub(t *testing.T) {
	s := memStore()
	vals := callVals(t, s, "grep_sub", term.Str("news"), term.Str("headline"), term.Str("budget"))
	if len(vals) != 1 {
		t.Errorf("grep_sub = %d, want 1", len(vals))
	}
}

func TestNumericFieldParsing(t *testing.T) {
	s := New("files")
	s.RegisterContent("nums", []string{"name|qty|price", "widget|5|2.5"})
	vals := callVals(t, s, "scan", term.Str("nums"))
	rec := vals[0].(term.Record)
	qty, _ := rec.Get("qty")
	if !term.Equal(qty, term.Int(5)) {
		t.Errorf("qty = %v (%T)", qty, qty)
	}
	price, _ := rec.Get("price")
	if !term.Equal(price, term.Float(2.5)) {
		t.Errorf("price = %v", price)
	}
	// grep with numeric value.
	hits := callVals(t, s, "grep", term.Str("nums"), term.Str("qty"), term.Int(5))
	if len(hits) != 1 {
		t.Errorf("numeric grep = %d", len(hits))
	}
}

func TestShortRecordPadding(t *testing.T) {
	s := New("files")
	s.RegisterContent("ragged", []string{"a|b|c", "1|2"})
	vals := callVals(t, s, "scan", term.Str("ragged"))
	rec := vals[0].(term.Record)
	cv, ok := rec.Get("c")
	if !ok || !term.Equal(cv, term.Str("")) {
		t.Errorf("missing field = %v", cv)
	}
}

func TestErrors(t *testing.T) {
	s := memStore()
	if _, err := s.Call(newCtx(), "scan", []term.Value{term.Str("nosuch")}); err == nil {
		t.Error("unknown file")
	}
	if _, err := s.Call(newCtx(), "grep", []term.Value{term.Str("news"), term.Str("nosuch"), term.Str("x")}); err == nil {
		t.Error("unknown field")
	}
	if _, err := s.Call(newCtx(), "nosuch", nil); err == nil {
		t.Error("unknown function")
	}
	if _, err := s.Call(newCtx(), "scan", nil); err == nil {
		t.Error("arity mismatch")
	}
	if _, err := s.Call(newCtx(), "grep_sub", []term.Value{term.Str("news"), term.Str("headline"), term.Int(3)}); err == nil {
		t.Error("non-string substring")
	}
	if _, err := s.Call(newCtx(), "scan", []term.Value{term.Int(1)}); err == nil {
		t.Error("non-string filename")
	}
}

func TestEmptyFile(t *testing.T) {
	s := New("files")
	s.RegisterContent("empty", nil)
	vals := callVals(t, s, "scan", term.Str("empty"))
	if len(vals) != 0 {
		t.Errorf("empty scan = %v", vals)
	}
}

func TestScanCostCharged(t *testing.T) {
	s := memStore()
	ctx := newCtx()
	st, _ := s.Call(ctx, "scan", []term.Value{term.Str("news")})
	domain.Collect(st)
	if ctx.Clock.Now() < DefaultCostParams.PerOpen {
		t.Errorf("clock = %v", ctx.Clock.Now())
	}
}
