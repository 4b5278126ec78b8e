package experiments

import (
	"fmt"
	"strings"
	"time"

	"hermes/internal/dcsm"
	"hermes/internal/estimate"
	"hermes/internal/vclock"
)

// PlanChoiceRow records one rewriting pair of the §8 plan-choice
// experiment: whether ranking the pair by DCSM predictions picks the plan
// that actually runs faster, for all-answers and for first-answer mode.
type PlanChoiceRow struct {
	Pair string

	PredictedATa time.Duration
	PredictedBTa time.Duration
	ActualATa    time.Duration
	ActualBTa    time.Duration
	// CorrectAll is true when the predicted-faster plan (all answers) is
	// the actually-faster plan.
	CorrectAll bool

	PredictedATf time.Duration
	PredictedBTf time.Duration
	ActualATf    time.Duration
	ActualBTf    time.Duration
	// TfMargin is |predictedATf - predictedBTf| / min(...), the §8
	// reliability margin: below 50% the paper found first-answer choices
	// unpredictable.
	TfMargin  float64
	CorrectTf bool
}

// PlanChoice evaluates the paper's §8 claims on the appendix rewriting
// pairs: (query1, query1'), (query2, query2'), (query3, query4).
func PlanChoice() ([]PlanChoiceRow, error) {
	tb, err := NewTestbed(TestbedOptions{Site: SiteUSA, DisableCIM: true})
	if err != nil {
		return nil, err
	}
	sys := tb.Sys
	if err := tb.WarmConnections(); err != nil {
		return nil, err
	}
	if err := sys.WarmStatistics(trainingCalls(1996)); err != nil {
		return nil, err
	}
	statsDB := dcsm.New(dcsm.DefaultConfig(), sys.Clock.Now)
	if err := copyStats(sys.DCSM, statsDB); err != nil {
		return nil, err
	}
	est := estimate.New(statsDB, nil)

	pairs := []struct{ name, a, b string }{
		{"query1 vs query1'", "?- query1(4, 47, Object, Size).", "?- query1p(4, 47, Object, Size)."},
		{"query2 vs query2'", "?- query2(4, 47, Object, Frames, Actor).", "?- query2p(4, 47, Object, Frames, Actor)."},
		{"query3 vs query4", "?- query3(4, 47, Object, Actor).", "?- query4(4, 47, Object, Actor)."},
	}
	var rows []PlanChoiceRow
	for _, p := range pairs {
		row := PlanChoiceRow{Pair: p.name}
		planA, err := originalOrderPlan(sys, p.a)
		if err != nil {
			return nil, err
		}
		planB, err := originalOrderPlan(sys, p.b)
		if err != nil {
			return nil, err
		}
		cvA, _, err := est.PlanCost(planA)
		if err != nil {
			return nil, err
		}
		cvB, _, err := est.PlanCost(planB)
		if err != nil {
			return nil, err
		}
		row.PredictedATa, row.PredictedBTa = cvA.TAll, cvB.TAll
		row.PredictedATf, row.PredictedBTf = cvA.TFirst, cvB.TFirst

		_, mA, err := runPlan(sys, planA)
		if err != nil {
			return nil, err
		}
		_, mB, err := runPlan(sys, planB)
		if err != nil {
			return nil, err
		}
		row.ActualATa, row.ActualBTa = mA.TAll, mB.TAll
		row.ActualATf, row.ActualBTf = mA.TFirst, mB.TFirst

		row.CorrectAll = (cvA.TAll <= cvB.TAll) == (mA.TAll <= mB.TAll)
		row.CorrectTf = (cvA.TFirst <= cvB.TFirst) == (mA.TFirst <= mB.TFirst)
		minTf := cvA.TFirst
		if cvB.TFirst < minTf {
			minTf = cvB.TFirst
		}
		if minTf > 0 {
			diff := cvA.TFirst - cvB.TFirst
			if diff < 0 {
				diff = -diff
			}
			row.TfMargin = float64(diff) / float64(minTf)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPlanChoice renders the plan-choice rows.
func FormatPlanChoice(rows []PlanChoiceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s | %11s %11s %11s %11s | %-7s | margin %%  Tf-correct\n",
		"Pair", "pred A Ta", "pred B Ta", "act A Ta", "act B Ta", "correct")
	b.WriteString(strings.Repeat("-", 110))
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s | %9sms %9sms %9sms %9sms | %-7v | %7.1f  %v\n",
			r.Pair,
			vclock.Millis(r.PredictedATa), vclock.Millis(r.PredictedBTa),
			vclock.Millis(r.ActualATa), vclock.Millis(r.ActualBTa),
			r.CorrectAll, r.TfMargin*100, r.CorrectTf)
	}
	return b.String()
}
