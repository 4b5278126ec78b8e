package dcsm

import (
	"errors"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

func meas(dom, fn string, args []term.Value, tfMs, taMs int, card float64) domain.Measurement {
	return domain.Measurement{
		Call: domain.Call{Domain: dom, Function: fn, Args: args},
		Cost: domain.CostVector{
			TFirst: time.Duration(tfMs) * time.Millisecond,
			TAll:   time.Duration(taMs) * time.Millisecond,
			Card:   card,
		},
		Complete: true,
	}
}

func sv(s string) []term.Value { return []term.Value{term.Str(s)} }

// observeRecord inserts a fully specified record, keeping its stamp and
// validity flags, the way Observe inserts a measurement.
func (db *DB) observeRecord(rec Record) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.insert(rec)
}

// loadFigure2 loads the cost vector database of the paper's Figure 2:
// tables for d1:p_bf (T16), d1:p_bb (T17), d2:q_bf (T18) and d2:q_ff (T19).
// T16's Ta entries are the paper's literal values (2.00, 2.20, 2.80, 2.84
// seconds, stored as ms).
func loadFigure2(db *DB) {
	// T16: d1:p_bf(A).
	db.Observe(meas("d1", "p_bf", sv("a"), 300, 2000, 2))
	db.Observe(meas("d1", "p_bf", sv("a"), 320, 2200, 2))
	db.Observe(meas("d1", "p_bf", sv("c"), 400, 2800, 1))
	db.Observe(meas("d1", "p_bf", sv("c"), 410, 2840, 1))
	// T17: d1:p_bb(A, B).
	db.Observe(meas("d1", "p_bb", []term.Value{term.Str("a"), term.Str("b1")}, 150, 500, 1))
	db.Observe(meas("d1", "p_bb", []term.Value{term.Str("a"), term.Str("b2")}, 160, 520, 1))
	db.Observe(meas("d1", "p_bb", []term.Value{term.Str("c"), term.Str("b3")}, 170, 560, 1))
	// T18: d2:q_bf(B).
	db.Observe(meas("d2", "q_bf", sv("b1"), 200, 900, 2))
	db.Observe(meas("d2", "q_bf", sv("b2"), 220, 1000, 1))
	// T19: d2:q_ff().
	db.Observe(meas("d2", "q_ff", nil, 500, 3000, 3))
	db.Observe(meas("d2", "q_ff", nil, 520, 3100, 3))
}

func TestPaperFigure2CostVectorDatabase(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	if n := len(db.Records("d1", "p_bf", 1)); n != 4 {
		t.Fatalf("T16 records = %d, want 4", n)
	}
	// §6.1: cost of d1:p_bf(a) = average of the two 'a' entries = 2.10 s.
	cv, err := db.Cost(domain.Pattern{Domain: "d1", Function: "p_bf",
		Args: []domain.PatternArg{domain.Const(term.Str("a"))}})
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll != 2100*time.Millisecond {
		t.Errorf("Ta(p_bf(a)) = %v, want 2.10s", cv.TAll)
	}
	if cv.Card != 2 {
		t.Errorf("Card(p_bf(a)) = %v, want 2", cv.Card)
	}
	// §6.1: cost of d1:p_bf($b) = average of all four entries = 2.46 s.
	cv, err = db.Cost(domain.Pattern{Domain: "d1", Function: "p_bf",
		Args: []domain.PatternArg{domain.Bound}})
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll != 2460*time.Millisecond {
		t.Errorf("Ta(p_bf($b)) = %v, want 2.46s", cv.TAll)
	}
}

func TestPaperFigure3LosslessSummarization(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	// T20: lossless summary of T16.
	tbl, err := db.SummarizeLossless("d1", "p_bf", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !tbl.Lossless() {
		t.Error("full-dimension summary should report Lossless")
	}
	rows := tbl.Rows()
	if len(rows) != 2 {
		t.Fatalf("T20 rows = %d, want 2 (a and c aggregated)", len(rows))
	}
	// Rows are ordered by dimension key: 'a' then 'c'.
	if rows[0].L != 2 || rows[0].AvgTa != 2100*time.Millisecond {
		t.Errorf("row a = l=%d Ta=%v, want l=2 Ta=2.1s", rows[0].L, rows[0].AvgTa)
	}
	if rows[1].L != 2 || rows[1].AvgTa != 2820*time.Millisecond {
		t.Errorf("row c = l=%d Ta=%v, want l=2 Ta=2.82s", rows[1].L, rows[1].AvgTa)
	}

	// Lossless property: after dropping the raw detail, every fully-constant
	// estimate is unchanged.
	before, err := db.Cost(domain.Pattern{Domain: "d1", Function: "p_bf",
		Args: []domain.PatternArg{domain.Const(term.Str("c"))}})
	if err != nil {
		t.Fatal(err)
	}
	db.DropDetail("d1", "p_bf", 1)
	after, err := db.Cost(domain.Pattern{Domain: "d1", Function: "p_bf",
		Args: []domain.PatternArg{domain.Const(term.Str("c"))}})
	if err != nil {
		t.Fatal(err)
	}
	if before != after {
		t.Errorf("lossless summarization changed an estimate: %v -> %v", before, after)
	}
}

func TestPaperFigure4LossySummarization(t *testing.T) {
	db := New(Config{AllowRawAggregation: false}, nil)
	loadFigure2(db)
	// Example 6.2: B can never be a planning-time constant, so drop it from
	// the dimensions of d1:p_bb(A, B): keep only position 0.
	tbl, err := db.Summarize("d1", "p_bb", 2, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Lossless() {
		t.Error("dropping a position must not be lossless")
	}
	if tbl.Len() != 2 {
		t.Fatalf("lossy p_bb rows = %d, want 2 ('a' and 'c')", tbl.Len())
	}
	// Estimation of p_bb('a', $b) hits the lossy table: average of the two
	// 'a' records = 510 ms.
	cv, err := db.Cost(domain.Pattern{Domain: "d1", Function: "p_bb",
		Args: []domain.PatternArg{domain.Const(term.Str("a")), domain.Bound}})
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll != 510*time.Millisecond {
		t.Errorf("Ta(p_bb(a,$b)) = %v, want 510ms", cv.TAll)
	}
}

func TestPaperSection63RelaxationOrder(t *testing.T) {
	// Example 6.3: a three-place call d:f(A, B, C). Available tables:
	// dims {1,2} (i.e. d:f($b, B, C)) and dims {} (d:f($b,$b,$b)). The call
	// pattern d:f('A', $b, 2) must relax to d:f($b, $b, 2), miss the row,
	// relax again and hit the grand-average table.
	db := New(Config{AllowRawAggregation: false}, nil)
	db.Observe(meas("d", "f", []term.Value{term.Str("x"), term.Str("y"), term.Int(7)}, 100, 1000, 5))
	db.Observe(meas("d", "f", []term.Value{term.Str("x"), term.Str("z"), term.Int(9)}, 100, 3000, 5))
	if _, err := db.Summarize("d", "f", 3, []int{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SummarizeFullyLossy("d", "f", 3); err != nil {
		t.Fatal(err)
	}
	p := domain.Pattern{Domain: "d", Function: "f", Args: []domain.PatternArg{
		domain.Const(term.Str("A")), domain.Bound, domain.Const(term.Int(2)),
	}}
	cv, trace, err := db.CostWithTrace(p)
	if err != nil {
		t.Fatalf("cost: %v (trace %v)", err, trace)
	}
	if cv.TAll != 2000*time.Millisecond {
		t.Errorf("Ta = %v, want grand average 2s", cv.TAll)
	}
	if len(trace) < 2 {
		t.Fatalf("trace too short: %v", trace)
	}
	last := trace[len(trace)-1]
	if want := "summary table  hit"; !contains(last, want) {
		t.Errorf("final trace step %q should be the dims-{} table hit", last)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (func() bool {
		for i := 0; i+len(sub) <= len(s); i++ {
			if s[i:i+len(sub)] == sub {
				return true
			}
		}
		return false
	})()
}

func TestIncompleteMeasurementsContributeOnlyTf(t *testing.T) {
	db := New(DefaultConfig(), nil)
	db.Observe(domain.Measurement{
		Call:     domain.Call{Domain: "d", Function: "f", Args: sv("a")},
		Cost:     domain.CostVector{TFirst: 100 * time.Millisecond, TAll: 150 * time.Millisecond, Card: 2},
		Complete: false, // stream closed early: Ta/Card unusable
	})
	cv, err := db.Cost(domain.Pattern{Domain: "d", Function: "f",
		Args: []domain.PatternArg{domain.Const(term.Str("a"))}})
	if err != nil {
		t.Fatal(err)
	}
	if cv.TFirst != 100*time.Millisecond {
		t.Errorf("Tf = %v", cv.TFirst)
	}
	// Missing Ta falls back to Tf; missing Card to 1.
	if cv.TAll != 100*time.Millisecond || cv.Card != 1 {
		t.Errorf("gap filling: %v", cv)
	}
}

func TestNoStatisticsError(t *testing.T) {
	db := New(DefaultConfig(), nil)
	_, err := db.Cost(domain.Pattern{Domain: "d", Function: "f",
		Args: []domain.PatternArg{domain.Bound}})
	if !errors.Is(err, ErrNoStatistics) {
		t.Errorf("err = %v, want ErrNoStatistics", err)
	}
}

func TestRecencyWeighting(t *testing.T) {
	now := time.Duration(0)
	cfg := DefaultConfig()
	cfg.RecencyHalfLife = time.Minute
	db := New(cfg, func() time.Duration { return now })
	// Old observation at t=0: 1000ms. New observation at t=2min: 3000ms.
	db.Observe(meas("d", "f", sv("a"), 100, 1000, 1))
	now = 2 * time.Minute
	db.Observe(meas("d", "f", sv("a"), 100, 3000, 1))
	cv, err := db.Cost(domain.Pattern{Domain: "d", Function: "f",
		Args: []domain.PatternArg{domain.Const(term.Str("a"))}})
	if err != nil {
		t.Fatal(err)
	}
	// Weights: old 0.25, new 1.0 -> (0.25*1000 + 3000)/1.25 = 2600ms.
	if got := cv.TAll.Round(time.Millisecond); got != 2600*time.Millisecond {
		t.Errorf("recency-weighted Ta = %v, want 2600ms", got)
	}
	// Plain averaging for comparison.
	db2 := New(DefaultConfig(), nil)
	db2.Observe(meas("d", "f", sv("a"), 100, 1000, 1))
	db2.Observe(meas("d", "f", sv("a"), 100, 3000, 1))
	cv2, _ := db2.Cost(domain.Pattern{Domain: "d", Function: "f",
		Args: []domain.PatternArg{domain.Const(term.Str("a"))}})
	if cv2.TAll != 2000*time.Millisecond {
		t.Errorf("plain Ta = %v, want 2000ms", cv2.TAll)
	}
}

func TestMaxRecordsPerCallBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRecordsPerCall = 3
	db := New(cfg, nil)
	for i := 0; i < 10; i++ {
		db.Observe(meas("d", "f", sv("a"), 100, 1000+i, 1))
	}
	if n := len(db.Records("d", "f", 1)); n != 3 {
		t.Errorf("records = %d, want 3", n)
	}
}

func TestNativeEstimatorPreferred(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	db.RegisterEstimator("d1", staticEstimator{cv: domain.CostVector{
		TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 42}})
	cv, err := db.Cost(domain.Pattern{Domain: "d1", Function: "p_bf",
		Args: []domain.PatternArg{domain.Const(term.Str("a"))}})
	if err != nil {
		t.Fatal(err)
	}
	if cv.Card != 42 {
		t.Errorf("native estimator not used: %v", cv)
	}
}

func TestNativeEstimatorMissingFieldsFilled(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	db.RegisterEstimator("d1", staticEstimator{
		cv:      domain.CostVector{Card: 42},
		missing: []string{"tf", "ta"},
	})
	cv, err := db.Cost(domain.Pattern{Domain: "d1", Function: "p_bf",
		Args: []domain.PatternArg{domain.Const(term.Str("a"))}})
	if err != nil {
		t.Fatal(err)
	}
	if cv.Card != 42 {
		t.Errorf("native card lost: %v", cv)
	}
	if cv.TAll != 2100*time.Millisecond {
		t.Errorf("Ta should come from statistics: %v", cv)
	}
}

type staticEstimator struct {
	cv      domain.CostVector
	missing []string
}

func (e staticEstimator) EstimateCost(p domain.Pattern) (domain.CostVector, []string, bool) {
	return e.cv, e.missing, true
}

func TestStorageStats(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	s := db.Storage()
	if s.RawRecords != 11 || s.SummaryTables != 0 {
		t.Errorf("storage = %+v", s)
	}
	if _, err := db.SummarizeLossless("d1", "p_bf", 1); err != nil {
		t.Fatal(err)
	}
	s = db.Storage()
	if s.SummaryTables != 1 || s.SummaryRows != 2 {
		t.Errorf("storage after summary = %+v", s)
	}
	db.DropTable("d1", "p_bf", 1, []int{0})
	if s := db.Storage(); s.SummaryTables != 0 {
		t.Errorf("DropTable failed: %+v", s)
	}
}

func TestSummarizeValidation(t *testing.T) {
	db := New(DefaultConfig(), nil)
	if _, err := db.Summarize("d", "f", 2, []int{2}); err == nil {
		t.Error("out-of-range dimension should error")
	}
	if _, err := db.Summarize("d", "f", 2, []int{0, 0}); err == nil {
		t.Error("duplicate dimension should error")
	}
	if _, err := db.Summarize("d", "wide", 70, []int{64}); err == nil {
		t.Error("a dimension past the 64 positions a mask can name should error")
	}
}

func TestSummaryTableString(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	tbl, _ := db.SummarizeLossless("d1", "p_bf", 1)
	s := tbl.String()
	if !contains(s, "2100.00") || !contains(s, "l") {
		t.Errorf("table rendering missing expected fields:\n%s", s)
	}
}
