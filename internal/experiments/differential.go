package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"hermes/internal/core"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/oracle"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// The differential harness is the memo cache's acceptance gate: a seeded
// random workload replayed under every combination of memo on/off and
// parallelism, asserting that every configuration answers each query
// with exactly the multiset the reference evaluator (internal/oracle)
// computes from the raw stores. The engine performs no duplicate
// elimination, so replaying a memoized relation must reproduce
// multiplicities too. Everything runs on the virtual clock, so a mismatch
// is deterministic and replayable from the seed.

// The acceptance configuration: 220 queries, 55% repeat traffic,
// sequential and 4-wide engines. Half of the repeats are α-renamed (same
// constants, fresh variable names), which must still hit, since memo keys
// canonicalize variable identity.
const (
	diffSeed           = 7
	diffQueries        = 220
	diffRepeatFraction = 0.55
)

var diffParallelism = []int{1, 4}

// DifferentialConfig is one (memo, parallelism) cell of the matrix.
type DifferentialConfig struct {
	Name        string `json:"name"`
	Parallelism int    `json:"parallelism"`
	Memo        bool   `json:"memo"`
	// Adaptive marks the cell that runs optimizer-chosen plans under
	// calibration-inflated costing, instead of plans pinned to textual
	// order. Plan choice must never change answers.
	Adaptive   bool       `json:"adaptive,omitempty"`
	Errors     int        `json:"errors"`
	Mismatches int        `json:"mismatches"`
	HitRate    float64    `json:"hit_rate"`
	MemoStats  memo.Stats `json:"memo_stats"`
	// MeanMS / RepeatMeanMS / FreshMeanMS are per-query all-answers means
	// on the virtual clock, split by whether the query repeats an earlier
	// one. RepeatMeanMS is where the memo earns its keep.
	MeanMS       float64 `json:"mean_ms"`
	RepeatMeanMS float64 `json:"repeat_mean_ms"`
	FreshMeanMS  float64 `json:"fresh_mean_ms"`
}

// DifferentialReport is the full matrix plus the cross-config verdict.
type DifferentialReport struct {
	Seed    int64                `json:"seed"`
	Queries int                  `json:"queries"`
	Repeats int                  `json:"repeats"`
	Configs []DifferentialConfig `json:"configs"`
	// TotalMismatches counts (config, query) pairs whose answer multiset
	// differs from the reference evaluator's. Zero on a passing run.
	TotalMismatches int `json:"total_mismatches"`
	// MismatchDetails describes the first few mismatches for debugging.
	MismatchDetails []string `json:"mismatch_details,omitempty"`
}

// diffQuery is one generated workload entry.
type diffQuery struct {
	Text string
	// Repeat marks a re-draw of an earlier entry (possibly α-renamed).
	Repeat bool
}

// diffTemplate is the generator's internal shape of a query: the template
// index plus its frame-range constants. Rendering with a variable-name
// suffix produces α-variants of the same logical query.
type diffTemplate struct {
	kind int
	f, l int
}

func (q diffTemplate) render(suffix string) string {
	switch q.kind {
	case 0:
		return fmt.Sprintf("?- actors(Actor%s).", suffix)
	case 1:
		return fmt.Sprintf("?- query1(%d, %d, Object%s, Size%s).", q.f, q.l, suffix, suffix)
	case 2:
		return fmt.Sprintf("?- query1p(%d, %d, Object%s, Size%s).", q.f, q.l, suffix, suffix)
	case 3:
		return fmt.Sprintf("?- query3(%d, %d, Object%s, Actor%s).", q.f, q.l, suffix, suffix)
	default:
		// A direct source call: no IDB predicate, so the memo never sees
		// it. It rides along to prove memo-off and memo-on traffic mix.
		return fmt.Sprintf("?- in(Object%s, avis:frames_to_objects('rope', %d, %d)).", suffix, q.f, q.l)
	}
}

// differentialWorkload generates the seeded query stream of n queries:
// fresh draws over the appendix templates with random frame ranges, and
// repeat draws from history, half of them α-renamed.
func differentialWorkload(n int) []diffQuery {
	rng := rand.New(rand.NewSource(diffSeed))
	var hist []diffTemplate
	out := make([]diffQuery, 0, n)
	renames := 0
	for i := 0; i < n; i++ {
		if len(hist) > 0 && rng.Float64() < diffRepeatFraction {
			q := hist[rng.Intn(len(hist))]
			suffix := ""
			if rng.Intn(2) == 0 {
				renames++
				suffix = fmt.Sprintf("R%d", renames)
			}
			out = append(out, diffQuery{Text: q.render(suffix), Repeat: true})
			continue
		}
		q := diffTemplate{kind: rng.Intn(5)}
		if q.kind != 0 {
			q.f = rng.Intn(100)
			q.l = q.f + 5 + rng.Intn(60)
			if q.l > 159 {
				q.l = 159
			}
		}
		hist = append(hist, q)
		out = append(out, diffQuery{Text: q.render("")})
	}
	return out
}

// runDifferentialCell replays the workload on a fresh testbed and adds
// the cell, with its mismatches against want, to the report. Plans are
// pinned to textual order so every configuration executes the same
// joins; only the memo (and the engine width) differs. The adaptive cell
// is the exception: it lets the optimizer choose plans under
// calibration-inflated costing.
func runDifferentialCell(rep *DifferentialReport, workload []diffQuery, want [][][]term.Value, parallelism int, withMemo, adaptive bool) error {
	var mcfg *memo.Config
	if withMemo {
		c := memo.DefaultConfig()
		mcfg = &c
	}
	tbOpts := TestbedOptions{
		RouteViaCIM:    true,
		WithInvariants: true,
		Seed:           diffSeed,
		Core:           core.Options{Parallelism: parallelism, Memo: mcfg},
	}
	name := fmt.Sprintf("memo=%v p=%d", withMemo, parallelism)
	if adaptive {
		tbOpts.Core.Obs = obs.NewObserver()
		tbOpts.Core.CalInflateQuantile = 0.9
		tbOpts.Core.ColdStartInflation = 1.5
		name = fmt.Sprintf("adaptive p=%d", parallelism)
	}
	tb, err := NewTestbed(tbOpts)
	if err != nil {
		return err
	}
	cell := DifferentialConfig{Name: name, Parallelism: parallelism, Memo: withMemo, Adaptive: adaptive}
	var sumAll, sumRepeat, sumFresh time.Duration
	repeats, fresh := 0, 0
	for i, q := range workload {
		var plan *rewrite.Plan
		if adaptive {
			plan, _, err = tb.Sys.Optimize(q.Text, false)
		} else {
			plan, err = originalOrderPlan(tb.Sys, q.Text)
		}
		if err != nil {
			return fmt.Errorf("differential: plan %s: %w", q.Text, err)
		}
		answers, metrics, err := runPlan(tb.Sys, plan)
		if err != nil {
			cell.Errors++
			continue
		}
		if got := rows(answers); !oracle.Equal(got, want[i]) {
			cell.Mismatches++
			rep.TotalMismatches++
			if len(rep.MismatchDetails) < 8 {
				rep.MismatchDetails = append(rep.MismatchDetails,
					fmt.Sprintf("%s q[%d] %s: %d answers vs the oracle's %d",
						name, i, q.Text, len(got), len(want[i])))
			}
		}
		sumAll += metrics.TAll
		if q.Repeat {
			sumRepeat += metrics.TAll
			repeats++
		} else {
			sumFresh += metrics.TAll
			fresh++
		}
	}
	ms := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n) / float64(time.Millisecond)
	}
	cell.MeanMS = ms(sumAll, repeats+fresh)
	cell.RepeatMeanMS = ms(sumRepeat, repeats)
	cell.FreshMeanMS = ms(sumFresh, fresh)
	if tb.Sys.Memo != nil {
		st := tb.Sys.Memo.Stats()
		cell.MemoStats = st
		if probes := st.Hits + st.Misses; probes > 0 {
			cell.HitRate = float64(st.Hits) / float64(probes)
		}
	}
	rep.Configs = append(rep.Configs, cell)
	return nil
}

// RunDifferential replays the generated workload under memo off/on at
// every parallelism, plus one adaptive cell at the widest engine, and
// compares each query's answer multiset with the reference evaluator's.
func RunDifferential() (*DifferentialReport, error) {
	workload := differentialWorkload(diffQueries)
	want, err := oracleAnswers(workload)
	if err != nil {
		return nil, err
	}
	rep := &DifferentialReport{Seed: diffSeed, Queries: len(workload)}
	for _, q := range workload {
		if q.Repeat {
			rep.Repeats++
		}
	}
	for _, p := range diffParallelism {
		for _, withMemo := range []bool{false, true} {
			if err := runDifferentialCell(rep, workload, want, p, withMemo, false); err != nil {
				return nil, err
			}
		}
	}
	if err := runDifferentialCell(rep, workload, want, diffParallelism[len(diffParallelism)-1], true, true); err != nil {
		return nil, err
	}
	return rep, nil
}

// FormatDifferential renders the matrix the way BENCH.md quotes it.
func FormatDifferential(rep *DifferentialReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Differential memo harness: %d queries (%d repeats), seed %d\n",
		rep.Queries, rep.Repeats, rep.Seed)
	fmt.Fprintf(&b, "%-18s %8s %8s %9s %9s %12s %11s\n",
		"config", "errors", "mismatch", "hit rate", "mean ms", "repeat ms", "fresh ms")
	for _, c := range rep.Configs {
		hit := "-"
		if c.Memo {
			hit = fmt.Sprintf("%.0f%%", c.HitRate*100)
		}
		fmt.Fprintf(&b, "%-18s %8d %8d %9s %9.0f %12.0f %11.0f\n",
			c.Name, c.Errors, c.Mismatches, hit, c.MeanMS, c.RepeatMeanMS, c.FreshMeanMS)
	}
	if rep.TotalMismatches == 0 {
		b.WriteString("every configuration's answer multisets equal the oracle's\n")
	} else {
		fmt.Fprintf(&b, "%d MISMATCHES\n", rep.TotalMismatches)
		for _, d := range rep.MismatchDetails {
			b.WriteString("  " + d + "\n")
		}
	}
	return b.String()
}
