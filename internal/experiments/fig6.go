package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"time"

	"hermes/internal/dcsm"
	"hermes/internal/estimate"
	"hermes/internal/vclock"
)

// Fig6Row is one row of the paper's Figure 6: a query's actual execution
// times against the DCSM's predictions from lossless and from lossy
// statistics.
type Fig6Row struct {
	Query      string
	ActualTf   time.Duration
	ActualTa   time.Duration
	LosslessTf time.Duration
	LosslessTa time.Duration
	LossyTf    time.Duration
	LossyTa    time.Duration
}

// fig6Queries are the appendix queries with the frame bindings used in the
// experiment. Primed names are the paper's rewritten variants.
func fig6Queries() []struct{ name, query string } {
	return []struct{ name, query string }{
		{"query1", "?- query1(4, 47, Object, Size)."},
		{"query1'", "?- query1p(4, 47, Object, Size)."},
		{"query2", "?- query2(4, 47, Object, Frames, Actor)."},
		{"query2'", "?- query2p(4, 47, Object, Frames, Actor)."},
		{"query3", "?- query3(4, 47, Object, Actor)."},
		{"query4", "?- query4(4, 47, Object, Actor)."},
	}
}

// Figure6 runs the DCSM utility experiment: warm the statistics cache with
// ~20 instantiations per call, summarize, then compare each query's actual
// first/all-answer times with the lossless and lossy predictions.
func Figure6() ([]Fig6Row, error) {
	// The testbed runs without a CIM: Figure 6 measures the DCSM alone.
	tb, err := NewTestbed(TestbedOptions{Site: SiteUSA, DisableCIM: true})
	if err != nil {
		return nil, err
	}
	sys := tb.Sys

	// Two statistics databases receive identical observations. The paper's
	// experiment restricts attention to domains with no native cost
	// estimation (§6), so both are pure statistics caches: the lossless one
	// keeps the full cost vector database; the lossy one keeps only summary
	// tables with every dimension attribute dropped.
	losslessDB := dcsm.New(dcsm.DefaultConfig(), sys.Clock.Now)
	lossyDB := dcsm.New(dcsm.Config{AllowRawAggregation: false}, sys.Clock.Now)

	// Establish connections first (unrecorded), then warm the statistics
	// from actual calls under steady-state network conditions.
	if err := tb.WarmConnections(); err != nil {
		return nil, err
	}
	if err := sys.WarmStatistics(trainingCalls(1996)); err != nil {
		return nil, err
	}
	for _, db := range []*dcsm.DB{losslessDB, lossyDB} {
		if err := copyStats(sys.DCSM, db); err != nil {
			return nil, err
		}
	}
	for _, f := range lossyDB.FunctionStats() {
		if _, err := lossyDB.SummarizeFullyLossy(f.Domain, f.Function, f.Arity); err != nil {
			return nil, err
		}
	}

	losslessEst := estimate.New(losslessDB, nil)
	lossyEst := estimate.New(lossyDB, nil)

	var rows []Fig6Row
	for _, q := range fig6Queries() {
		plan, err := originalOrderPlan(sys, q.query)
		if err != nil {
			return nil, fmt.Errorf("figure 6 %s: %w", q.name, err)
		}
		predictLossless, _, err := losslessEst.PlanCost(plan)
		if err != nil {
			return nil, fmt.Errorf("figure 6 %s lossless: %w", q.name, err)
		}
		predictLossy, _, err := lossyEst.PlanCost(plan)
		if err != nil {
			return nil, fmt.Errorf("figure 6 %s lossy: %w", q.name, err)
		}
		_, metrics, err := runPlan(sys, plan)
		if err != nil {
			return nil, fmt.Errorf("figure 6 %s run: %w", q.name, err)
		}
		// The engine's fixed query overheads apply to measured times; add
		// them to the predictions so both sides report the same quantity
		// ("query initialization + wait + display").
		adjust := func(cv time.Duration, answersN float64, all bool) time.Duration {
			out := cv + paperQueryInit
			if all {
				out += time.Duration(answersN) * paperPerDisplay
			} else {
				out += paperPerDisplay
			}
			return out
		}
		rows = append(rows, Fig6Row{
			Query:      q.name,
			ActualTf:   metrics.TFirst,
			ActualTa:   metrics.TAll,
			LosslessTf: adjust(predictLossless.TFirst, predictLossless.Card, false),
			LosslessTa: adjust(predictLossless.TAll, predictLossless.Card, true),
			LossyTf:    adjust(predictLossy.TFirst, predictLossy.Card, false),
			LossyTa:    adjust(predictLossy.TAll, predictLossy.Card, true),
		})
	}
	return rows, nil
}

// copyStats loads a copy of src's statistics into dst through a snapshot,
// so that both configurations of a comparison see identical observations.
func copyStats(src, dst *dcsm.DB) error {
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		return err
	}
	return dst.Load(&buf)
}

// FormatFigure6 renders the rows like the paper's Figure 6 table.
func FormatFigure6(rows []Fig6Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-9s | %10s %10s %10s | %10s %10s %10s\n",
		"Query", "actual Tf", "lossl. Tf", "lossy Tf", "actual Ta", "lossl. Ta", "lossy Ta")
	b.WriteString(strings.Repeat("-", 80))
	b.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s | %8sms %8sms %8sms | %8sms %8sms %8sms\n",
			r.Query,
			vclock.Millis(r.ActualTf), vclock.Millis(r.LosslessTf), vclock.Millis(r.LossyTf),
			vclock.Millis(r.ActualTa), vclock.Millis(r.LosslessTa), vclock.Millis(r.LossyTa))
	}
	return b.String()
}
