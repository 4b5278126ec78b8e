package dcsm

import (
	"fmt"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// TestObserveGradesCompleteMeasurements: a complete measurement is graded
// against the estimate the module held just before recording it; a first
// measurement has nothing to grade and an incomplete one is not graded. A
// mounted peer's actual is graded through Grade. Grading reads without
// counting, and the hermes_dcsm_qerror_* series SetObserver attaches
// merge the grades.
func TestObserveGradesCompleteMeasurements(t *testing.T) {
	o := obs.NewObserver()
	db := New(DefaultConfig(), nil)
	db.SetObserver(o)
	cal := db.Calibration()

	db.Observe(meas("d", "f", sv("a"), 10, 100, 2))
	if _, n := cal.Grade("d", "f"); n != 0 {
		t.Fatalf("a first measurement was graded (%d samples) with no estimate to grade", n)
	}
	db.Observe(meas("d", "f", sv("a"), 10, 300, 2))
	if q, n := cal.Grade("d", "f"); n != 1 || q != 3 {
		t.Fatalf("second measurement: median q-error %v over %d samples, want 3 over 1 (est Ta 100ms, actual 300ms)", q, n)
	}
	incomplete := meas("d", "f", sv("a"), 10, 900, 9)
	incomplete.Complete = false
	db.Observe(incomplete)
	if _, n := cal.Grade("d", "f"); n != 1 {
		t.Fatalf("an incomplete measurement was graded: %d samples", n)
	}
	db.Grade(domain.Call{Domain: "d", Function: "f", Args: sv("a")}, domain.CostVector{TFirst: 10 * time.Millisecond, TAll: 200 * time.Millisecond, Card: 2})
	if _, n := cal.Grade("d", "f"); n != 2 {
		t.Fatalf("Grade of a reported actual: %d samples, want 2", n)
	}

	for _, name := range []string{"hermes_dcsm_qerror_tf", "hermes_dcsm_qerror_ta", "hermes_dcsm_qerror_card"} {
		if n := o.Metrics.Histogram(name, "domain", "d").Count(); n != 2 {
			t.Errorf("%s{domain=\"d\"} count = %d, want 2", name, n)
		}
	}
	for _, source := range estimateSources {
		if v := o.Counter("hermes_dcsm_estimates_total", "source", source).Value(); v != 0 {
			t.Errorf("grading counted %d estimates from %s", v, source)
		}
	}
	if raw := db.RawAggregations(); len(raw) != 0 {
		t.Errorf("grading moved the access counters AutoTune reads: %v", raw)
	}
}

// TestPeekMatchesCostAndCountsNothing: Peek resolves as Cost does — native
// estimator, summary table, raw records — but moves neither the
// estimates family nor the table hits and raw serves AutoTune reads.
func TestPeekMatchesCostAndCountsNothing(t *testing.T) {
	o := obs.NewObserver()
	db := New(DefaultConfig(), nil)
	db.SetObserver(o)
	loadFigure2(db)
	if _, err := db.Summarize("d1", "p_bb", 2, []int{0}); err != nil {
		t.Fatal(err)
	}
	db.RegisterEstimator("native", fixedEstimator{})
	call := func(dom, fn string, args ...string) domain.Call {
		c := domain.Call{Domain: dom, Function: fn}
		for _, a := range args {
			c.Args = append(c.Args, term.Str(a))
		}
		return c
	}
	calls := []domain.Call{
		call("d1", "p_bf", "a"),       // raw
		call("d1", "p_bb", "a", "zz"), // no record at (a, zz) or (zz): relaxed to the summary table on A
		call("native", "g", "x"),      // native
		call("d2", "q_bf", "nope"),    // relaxed to $b, raw
		call("d9", "none", "x"),       // no statistics
	}
	counters := func() string {
		var estimates [len(estimateSources)]int64
		for i, source := range estimateSources {
			estimates[i] = o.Counter("hermes_dcsm_estimates_total", "source", source).Value()
		}
		return fmt.Sprint(db.TableHits(), db.RawAggregations(), estimates)
	}
	for _, c := range calls {
		before := counters()
		peeked, ok := db.Peek(c)
		if after := counters(); after != before {
			t.Errorf("Peek(%s) moved the counters: %s -> %s", c, before, after)
		}
		cv, err := db.Cost(domain.PatternOf(c))
		if ok != (err == nil) || peeked != cv {
			t.Errorf("%s: Peek = %v, %v; Cost = %v, %v", c, peeked, ok, cv, err)
		}
		if counters() == before {
			t.Errorf("Cost(%s) moved no counter", c)
		}
	}
}

// fixedEstimator is a native cost model that prices every pattern alike.
type fixedEstimator struct{}

func (fixedEstimator) EstimateCost(domain.Pattern) (domain.CostVector, []string, bool) {
	return domain.CostVector{TFirst: time.Millisecond, TAll: 5 * time.Millisecond, Card: 3}, nil, true
}

// TestPeekAllocsPer: pricing a ground call allocates nothing, whether the
// statistics answer it or a native estimator, whose pattern's arguments
// are a recycled slice (a fresh one per call before). Under -race
// sync.Pool drops some of what is put back, so the bound is checked
// without it.
func TestPeekAllocsPer(t *testing.T) {
	db := New(DefaultConfig(), nil)
	loadFigure2(db)
	db.RegisterEstimator("native", fixedEstimator{})
	for _, c := range []domain.Call{
		{Domain: "d1", Function: "p_bf", Args: []term.Value{term.Str("a")}},
		{Domain: "native", Function: "g", Args: []term.Value{term.Str("x"), term.Int(2)}},
	} {
		peek := func() {
			if _, ok := db.Peek(c); !ok {
				t.Fatalf("Peek(%s) found no estimate", c)
			}
		}
		if n := testing.AllocsPerRun(200, peek); n != 0 && !raceEnabled {
			t.Errorf("Peek(%s) allocates %v times, want 0", c, n)
		}
	}
}

// TestObserveAllocsPerMeasurement: observing a complete measurement of a
// known call — the grade and the record — allocates nothing: the grade
// looks the call up by its arguments, with no pattern.
func TestObserveAllocsPerMeasurement(t *testing.T) {
	o := obs.NewObserver()
	db := New(DefaultConfig(), nil)
	db.SetObserver(o)
	m := domain.Measurement{
		Call:     domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Str("rope"), term.Int(7), term.Int(37)}},
		Cost:     domain.CostVector{TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 5},
		Complete: true,
	}
	observe := func() { db.Observe(m) }
	for i := 0; i < 2000; i++ {
		observe()
	}
	if allocs := testing.AllocsPerRun(1000, observe); allocs != 0 {
		t.Errorf("Observe of a complete measurement allocates %v times, want 0", allocs)
	}
	if _, n := db.Calibration().Grade("d", "f"); n < 2000 {
		t.Errorf("only %d of the measurements were graded", n)
	}
}
