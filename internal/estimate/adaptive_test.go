package estimate

import (
	"fmt"
	"testing"
	"time"

	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/memo"
	obs2 "hermes/internal/obs"
	"hermes/internal/term"
)

// calCost builds an obs.Cost with the given Ta in milliseconds.
func calCost(taMs int) obs2.Cost {
	return obs2.Cost{TAll: time.Duration(taMs) * time.Millisecond, Card: 1}
}

// singleCallEstimator builds an estimator over stats for one d:f() call
// with Ta = 1000ms, Card = 1.
func singleCallEstimator(t *testing.T) (*Estimator, *dcsm.DB) {
	t.Helper()
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	obs(db, "d", "f", nil, 100, 1000, 1)
	return New(db, nil), db
}

// TestInflationColdPath: a never-observed function takes the cold-start
// factor, and the detail counts it.
func TestInflationColdPath(t *testing.T) {
	est, _ := singleCallEstimator(t)
	plans := plansFor(t, `v(X) :- in(X, d:f()).`, "?- v(X).")
	est.SetCalibration(0.9, 2.5)

	cv, d, err := est.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll != 2500*time.Millisecond {
		t.Errorf("cold TAll = %v, want 2500ms (1000 x 2.5)", cv.TAll)
	}
	if d.ColdInflated != 1 || d.Inflated != 0 || d.MaxInflation != 2.5 {
		t.Errorf("cold detail = %+v", d)
	}
	if cv.Card != 1 {
		t.Errorf("inflation must not touch Card: got %v", cv.Card)
	}
}

// TestInflationThinPath: a function with a single *accurate* observation
// must not take cold-start inflation — its evidence says q-error 1.
func TestInflationThinPath(t *testing.T) {
	est, db := singleCallEstimator(t)
	plans := plansFor(t, `v(X) :- in(X, d:f()).`, "?- v(X).")
	db.Calibration().Observe("d", "f", calCost(1000), calCost(1000))
	est.SetCalibration(0.9, 2.5)

	cv, d, err := est.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll != 1000*time.Millisecond {
		t.Errorf("thin-accurate TAll = %v, want uninflated 1000ms", cv.TAll)
	}
	if d.ColdInflated != 0 || d.Inflated != 0 {
		t.Errorf("thin-accurate detail = %+v", d)
	}
}

// TestInflationRoughPath: consistently-wrong observations inflate by the
// observed factor.
func TestInflationRoughPath(t *testing.T) {
	est, db := singleCallEstimator(t)
	plans := plansFor(t, `v(X) :- in(X, d:f()).`, "?- v(X).")
	for i := 0; i < obs2.CalMinSamples; i++ {
		db.Calibration().Observe("d", "f", calCost(1000), calCost(4000)) // q-error 4
	}
	est.SetCalibration(0.9, 2.5)

	cv, d, err := est.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll != 4000*time.Millisecond {
		t.Errorf("rough TAll = %v, want 4000ms (1000 x q-err 4)", cv.TAll)
	}
	if d.Inflated != 1 || d.ColdInflated != 0 || d.MaxInflation != 4 {
		t.Errorf("rough detail = %+v", d)
	}
}

// TestInflationQuantileDivergence: with a mostly-accurate history and a
// fat tail, the median sees nothing while p90 inflates — the reason the
// planner reads a pessimistic quantile.
func TestInflationQuantileDivergence(t *testing.T) {
	plans := plansFor(t, `v(X) :- in(X, d:f()).`, "?- v(X).")
	estMedian, db := singleCallEstimator(t)
	cal := db.Calibration()
	for i := 0; i < 8; i++ {
		cal.Observe("d", "f", calCost(1000), calCost(1000))
	}
	cal.Observe("d", "f", calCost(1000), calCost(16000))
	cal.Observe("d", "f", calCost(1000), calCost(16000))

	estMedian.SetCalibration(0.5, 1)
	cvMed, _, err := estMedian.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	estP90 := New(db, nil)
	estP90.SetCalibration(0.9, 1)
	cvP90, d, err := estP90.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if cvMed.TAll != 1000*time.Millisecond {
		t.Errorf("median-quantile TAll = %v, want 1000ms", cvMed.TAll)
	}
	if cvP90.TAll != 16000*time.Millisecond {
		t.Errorf("p90-quantile TAll = %v, want 16000ms", cvP90.TAll)
	}
	if d.MaxInflation != 16 {
		t.Errorf("p90 detail = %+v", d)
	}
}

// TestInflationQuantileOneReadsMaximum: quantile 1 inflates by the
// window's largest q-error, and is not silently rewritten to p90.
func TestInflationQuantileOneReadsMaximum(t *testing.T) {
	plans := plansFor(t, `v(X) :- in(X, d:f()).`, "?- v(X).")
	est, db := singleCallEstimator(t)
	for q := 1; q <= 10; q++ { // q-errors 1..10: p90 is 9, the maximum 10
		db.Calibration().Observe("d", "f", calCost(1000), calCost(1000*q))
	}
	est.SetCalibration(1, 1)
	cv, d, err := est.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll != 10000*time.Millisecond || d.MaxInflation != 10 {
		t.Errorf("quantile 1: TAll = %v, max inflation %v; want 10000ms, 10 (the window maximum)", cv.TAll, d.MaxInflation)
	}
}

// TestInflationFlipsPlanChoice: the robust ranking prefers an honestly-
// priced 2s plan over a "500ms" plan whose estimates historically blow
// up 10x.
func TestInflationFlipsPlanChoice(t *testing.T) {
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	obs(db, "d", "spiky", nil, 50, 500, 1)
	obs(db, "d", "honest", nil, 200, 2000, 1)
	src := `
		access_equivalent('v', 1).
		v(X) :- in(X, d:spiky()).
		v(X) :- in(X, d:honest()).
	`
	plans := plansFor(t, src, "?- v(X).")

	blind := New(db, nil)
	p, _, _, err := blind.Best(plans, false)
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(p.String(), "spiky") {
		t.Fatalf("blind ranking should pick the optimistic plan, got %s", p)
	}

	cal := db.Calibration()
	for i := 0; i < obs2.CalMinSamples; i++ {
		cal.Observe("d", "spiky", calCost(500), calCost(5000))
		cal.Observe("d", "honest", calCost(2000), calCost(2000))
	}
	robust := New(db, nil)
	robust.SetCalibration(0.9, 1.5)
	p, cv, d, err := robust.Best(plans, false)
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(p.String(), "honest") {
		t.Errorf("robust ranking picked %s (cost %v, detail %+v)", p, cv, d)
	}
}

// TestMemoResidencyDiscount: a subgoal whose memo key is resident is
// priced at its replay cost, and the discount disappears when the entry
// is degraded.
func TestMemoResidencyDiscount(t *testing.T) {
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	obs(db, "d", "f", nil, 100, 1000, 3)
	plans := plansFor(t, `v(X) :- in(X, d:f()).`, "?- v(X).")
	p := plans[0]

	mc := memo.New(memo.DefaultConfig())
	est := New(db, nil)
	est.SetMemo(mc)

	// Cold memo: source cost.
	cv, d, err := est.PlanCost(p)
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll != 1000*time.Millisecond || d.MemoHits != 0 {
		t.Fatalf("cold memo TAll = %v, detail %+v", cv.TAll, d)
	}

	// Seed the exact entry the query's top-level v^f occurrence probes.
	key := []byte(fmt.Sprintf("v^f|#%x|v0", p.Fingerprint()))
	res := mc.Probe(key)
	if res.Rec == nil {
		t.Fatalf("probe did not open a recording: %+v", res)
	}
	for i := 0; i < 3; i++ {
		res.Rec.Add([]term.Value{term.Int(int64(i))})
	}
	res.Rec.Commit(domain.CostVector{TAll: time.Second, Card: 3})
	if _, ok := mc.EstimateServe(key); !ok {
		t.Fatal("seeded entry not serveable")
	}

	cv, d, err = est.PlanCost(p)
	if err != nil {
		t.Fatal(err)
	}
	wantTa := mc.LookupCost() + 3*mc.PerTupleCost()
	if cv.TAll != wantTa || cv.Card != 3 {
		t.Errorf("warm memo cost = %+v, want TAll %v Card 3", cv, wantTa)
	}
	if d.MemoHits != 1 {
		t.Errorf("warm memo detail = %+v", d)
	}
	if cv.TFirst != mc.LookupCost()+mc.PerTupleCost() {
		t.Errorf("warm memo TFirst = %v", cv.TFirst)
	}

	// A degraded fill (recorded while a source was down) must not
	// discount: it is not stored, so the engine would not serve it either.
	mc2 := memo.New(memo.DefaultConfig())
	res2 := mc2.Probe(key)
	res2.Rec.Note("d|f", true) // degraded input
	res2.Rec.Add([]term.Value{term.Int(0)})
	res2.Rec.Commit(domain.CostVector{TAll: time.Second, Card: 1})
	if _, ok := mc2.EstimateServe(key); ok {
		t.Fatal("degraded fill should not be serveable")
	}
	est.SetMemo(mc2)
	cv, d, err = est.PlanCost(p)
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll != 1000*time.Millisecond || d.MemoHits != 0 {
		t.Errorf("degraded entry still discounted: %+v detail %+v", cv, d)
	}
}
