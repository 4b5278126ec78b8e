package dcsm

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	if _, err := db.SummarizeLossless("d1", "p_bf", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SummarizeFullyLossy("d2", "q_ff", 0); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New(DefaultConfig(), nil)
	if err := db2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}

	// Same record counts and storage.
	if len(db2.Records("d1", "p_bf", 1)) != 4 {
		t.Errorf("records after load = %d", len(db2.Records("d1", "p_bf", 1)))
	}
	s1, s2 := db.Storage(), db2.Storage()
	if s1 != s2 {
		t.Errorf("storage differs: %+v vs %+v", s1, s2)
	}
	// Identical estimates, raw and via tables.
	for _, p := range []domain.Pattern{
		{Domain: "d1", Function: "p_bf", Args: []domain.PatternArg{domain.Const(term.Str("a"))}},
		{Domain: "d1", Function: "p_bf", Args: []domain.PatternArg{domain.Bound}},
		{Domain: "d2", Function: "q_ff", Args: nil},
		{Domain: "d1", Function: "p_bb", Args: []domain.PatternArg{
			domain.Const(term.Str("a")), domain.Bound}},
	} {
		cv1, err1 := db.Cost(p)
		cv2, err2 := db2.Cost(p)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: error mismatch %v vs %v", p, err1, err2)
		}
		if cv1 != cv2 {
			t.Errorf("%s: estimate differs after reload: %v vs %v", p, cv1, cv2)
		}
	}
}

func TestLoadSurvivesDroppedDetail(t *testing.T) {
	// Summary tables must persist even when the raw detail was dropped
	// (they cannot be rebuilt).
	db := New(Config{AllowRawAggregation: false}, nil)
	loadFigure2(db)
	if _, err := db.SummarizeLossless("d1", "p_bf", 1); err != nil {
		t.Fatal(err)
	}
	db.DropDetail("d1", "p_bf", 1)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2 := New(Config{AllowRawAggregation: false}, nil)
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	cv, err := db2.Cost(domain.Pattern{Domain: "d1", Function: "p_bf",
		Args: []domain.PatternArg{domain.Const(term.Str("a"))}})
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll != 2100*time.Millisecond {
		t.Errorf("Ta after reload = %v", cv.TAll)
	}
}

// TestSaveIsDeterministic: two saves of one state write the same bytes, and
// so does a save of the state loaded back (functions and tables are
// emitted in key order, not map order).
func TestSaveIsDeterministic(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	if _, err := db.SummarizeLossless("d1", "p_bf", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SummarizeLossless("d1", "p_bb", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Summarize("d1", "p_bb", 2, []int{0}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SummarizeFullyLossy("d2", "q_ff", 0); err != nil {
		t.Fatal(err)
	}
	save := func(db *DB) []byte {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := save(db)
	for i := 0; i < 20; i++ { // map order varies from range to range
		if again := save(db); !bytes.Equal(first, again) {
			t.Fatalf("save %d of the same state differs:\n%s\nvs\n%s", i+2, first, again)
		}
	}
	reloaded := New(DefaultConfig(), nil)
	if err := reloaded.Load(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if again := save(reloaded); !bytes.Equal(first, again) {
		t.Fatalf("save of the reloaded state differs:\n%s\nvs\n%s", first, again)
	}
}

// TestLoadResetsAccessCounters: the counters AutoTune reads describe the
// state they were counted on; Load replaces that state and they go with it.
func TestLoadResetsAccessCounters(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	if _, err := db.SummarizeLossless("d2", "q_bf", 1); err != nil {
		t.Fatal(err)
	}
	for _, p := range []domain.Pattern{
		{Domain: "d1", Function: "p_bf", Args: []domain.PatternArg{domain.Const(term.Str("a"))}},
		{Domain: "d2", Function: "q_bf", Args: []domain.PatternArg{domain.Const(term.Str("b1"))}},
	} {
		for i := 0; i < 3; i++ {
			if _, err := db.Cost(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(db.RawAggregations()) != 1 || len(db.TableHits()) != 1 {
		t.Fatalf("before load: raw=%v hits=%v", db.RawAggregations(), db.TableHits())
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := db.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if raw, hits := db.RawAggregations(), db.TableHits(); len(raw) != 0 || len(hits) != 0 {
		t.Errorf("counters survived Load: raw=%v hits=%v", raw, hits)
	}
	if created, dropped, _ := db.AutoTune(3, 0); len(created) != 0 || len(dropped) != 0 {
		t.Errorf("AutoTune acted on the previous state's counts: created=%v dropped=%v", created, dropped)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	db := New(DefaultConfig(), nil)
	if err := db.Load(strings.NewReader("not json")); err == nil {
		t.Error("garbage input should fail")
	}
	if err := db.Load(strings.NewReader(`{"version": 99}`)); err == nil {
		t.Error("unknown version should fail")
	}
}

// TestLoadRejectsMalformedRows: a summary row must hold one value per
// dimension, and no two rows of a table may hold equal values. A short row
// could never be probed, and a duplicate would silently lose one row's l.
func TestLoadRejectsMalformedRows(t *testing.T) {
	table := func(rows string) string {
		return `{"version":1,"tables":[{"domain":"d","function":"f","arity":2,"dims":[0,1],"rows":[` + rows + `]}]}`
	}
	a, b := `{"t":"s","s":"a"}`, `{"t":"s","s":"b"}`
	for _, c := range []struct{ name, snap string }{
		{"short row", table(`{"dims":[` + a + `],"tf":1,"l":1,"wTf":1}`)},
		{"long row", table(`{"dims":[` + a + `,` + b + `,` + a + `],"tf":1,"l":1,"wTf":1}`)},
		{"duplicate rows", table(`{"dims":[` + a + `,` + b + `],"tf":1,"l":2,"wTf":2},{"dims":[` + a + `,` + b + `],"tf":3,"l":5,"wTf":5}`)},
	} {
		if err := New(DefaultConfig(), nil).Load(strings.NewReader(c.snap)); err == nil {
			t.Errorf("%s: loaded without an error", c.name)
		}
	}
	// The well-formed neighbour loads.
	db := New(DefaultConfig(), nil)
	if err := db.Load(strings.NewReader(table(`{"dims":[` + a + `,` + b + `],"tf":1,"l":2,"wTf":2},{"dims":[` + b + `,` + a + `],"tf":3,"l":5,"wTf":5}`))); err != nil {
		t.Fatal(err)
	}
	if s := db.Storage(); s.SummaryRows != 2 {
		t.Errorf("loaded %d rows, want 2", s.SummaryRows)
	}
}

func TestAutoTuneCreatesHotTables(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	p := domain.Pattern{Domain: "d1", Function: "p_bf",
		Args: []domain.PatternArg{domain.Const(term.Str("a"))}}
	// Five estimations, all served by raw aggregation.
	for i := 0; i < 5; i++ {
		if _, err := db.Cost(p); err != nil {
			t.Fatal(err)
		}
	}
	raw := db.RawAggregations()
	if len(raw) != 1 {
		t.Fatalf("raw aggregation counters = %v", raw)
	}
	created, dropped, err := db.AutoTune(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 1 || len(dropped) != 0 {
		t.Fatalf("created=%v dropped=%v", created, dropped)
	}
	// The hot shape is now a summary table; the next estimation hits it.
	if _, err := db.Cost(p); err != nil {
		t.Fatal(err)
	}
	hits := db.TableHits()
	total := 0
	for _, n := range hits {
		total += n
	}
	if total != 1 {
		t.Errorf("table hits after tune = %v", hits)
	}
}

func TestAutoTuneDropsColdTables(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	if _, err := db.SummarizeLossless("d2", "q_bf", 1); err != nil {
		t.Fatal(err)
	}
	// No estimation touches the table; it is cold.
	created, dropped, err := db.AutoTune(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 0 || len(dropped) != 1 {
		t.Fatalf("created=%v dropped=%v", created, dropped)
	}
	if s := db.Storage(); s.SummaryTables != 0 {
		t.Errorf("cold table not dropped: %+v", s)
	}
}

func TestAutoTuneKeepsHotTables(t *testing.T) {
	db := New(Config{AllowRawAggregation: false}, nil)
	loadFigure2(db)
	if _, err := db.SummarizeLossless("d1", "p_bf", 1); err != nil {
		t.Fatal(err)
	}
	p := domain.Pattern{Domain: "d1", Function: "p_bf",
		Args: []domain.PatternArg{domain.Const(term.Str("a"))}}
	for i := 0; i < 4; i++ {
		if _, err := db.Cost(p); err != nil {
			t.Fatal(err)
		}
	}
	_, dropped, err := db.AutoTune(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(dropped) != 0 {
		t.Errorf("hot table dropped: %v", dropped)
	}
	// Counters reset after tuning.
	if hits := db.TableHits(); len(hits) != 0 {
		t.Errorf("counters not reset: %v", hits)
	}
}

func TestAutoTuneNeverDropsFreshTables(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	p := domain.Pattern{Domain: "d1", Function: "p_bf",
		Args: []domain.PatternArg{domain.Const(term.Str("a"))}}
	for i := 0; i < 5; i++ {
		db.Cost(p)
	}
	// keepThreshold high: everything cold — but the table created in this
	// pass must survive it.
	created, dropped, err := db.AutoTune(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(created) != 1 || len(dropped) != 0 {
		t.Fatalf("created=%v dropped=%v", created, dropped)
	}
	if s := db.Storage(); s.SummaryTables != 1 {
		t.Errorf("fresh table missing: %+v", s)
	}
}
