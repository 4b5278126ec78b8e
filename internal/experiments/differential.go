package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"hermes/internal/core"
	"hermes/internal/engine"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/rewrite"
)

// The differential harness is the memo cache's acceptance gate: a seeded
// random workload replayed under every combination of memo on/off and
// parallelism, asserting that every configuration produces exactly the
// same answer multiset per query. The engine performs no duplicate
// elimination, so replaying a memoized relation must reproduce
// multiplicities too — which is why comparisons use answerMultiset and
// not the deduplicating answerKeys of the chaos harness. Everything runs
// on the virtual clock, so a mismatch is deterministic and replayable
// from the seed.

// DifferentialOptions configure a differential run.
type DifferentialOptions struct {
	// Seed drives the workload generator and the netsim jitter.
	Seed int64
	// Queries is the workload length.
	Queries int
	// RepeatFraction is the probability that a query is a repeat of an
	// earlier one (the memo's target traffic). Half of the repeats are
	// α-renamed — same constants, fresh variable names — which must still
	// hit, since memo keys canonicalize variable identity.
	RepeatFraction float64
	// Parallelism lists the engine widths to cross with memo on/off.
	Parallelism []int
}

// DefaultDifferentialOptions is the acceptance configuration: 220 queries,
// 55% repeat traffic, sequential and 4-wide engines.
func DefaultDifferentialOptions() DifferentialOptions {
	return DifferentialOptions{
		Seed:           7,
		Queries:        220,
		RepeatFraction: 0.55,
		Parallelism:    []int{1, 4},
	}
}

// DifferentialConfig is one (memo, parallelism) cell of the matrix.
type DifferentialConfig struct {
	Name        string `json:"name"`
	Parallelism int    `json:"parallelism"`
	Memo        bool   `json:"memo"`
	// Adaptive marks the cell that runs optimizer-chosen plans under
	// calibration-inflated costing, instead of plans pinned to textual
	// order. Plan choice must never change
	// answers, so this cell diffs against the same baseline.
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
	// differs from the baseline (memo off, lowest parallelism). Zero on a
	// passing run.
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

// differentialWorkload generates the seeded query stream: fresh draws over
// the appendix templates with random frame ranges, and repeat draws from
// history, half of them α-renamed.
func differentialWorkload(seed int64, n int, repeatFraction float64) []diffQuery {
	rng := rand.New(rand.NewSource(seed))
	var hist []diffTemplate
	out := make([]diffQuery, 0, n)
	renames := 0
	for i := 0; i < n; i++ {
		if len(hist) > 0 && rng.Float64() < repeatFraction {
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

// answerMultiset canonicalizes an answer multiset: one key per delivered
// answer, sorted, duplicates preserved. The deduplicating answerKeys of
// the chaos harness would mask a memo bug that drops or doubles tuples.
func answerMultiset(answers []engine.Answer) []string {
	keys := make([]string, len(answers))
	for i, a := range answers {
		parts := make([]string, len(a.Vals))
		for j, v := range a.Vals {
			parts[j] = v.Key()
		}
		keys[i] = strings.Join(parts, "|")
	}
	sort.Strings(keys)
	return keys
}

func multisetsEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// diffRun is one configuration's pass over the workload.
type diffRun struct {
	cfg     DifferentialConfig
	results [][]string // per-query sorted answer multisets (nil on error)
}

// runDifferentialConfig replays the workload on a fresh testbed. Plans are
// pinned to textual order so every configuration executes the same joins;
// only the memo (and the engine width) differs. The adaptive cell is the
// exception: it lets the optimizer choose plans under calibration-inflated
// costing, asserting that feedback-driven plan choice never changes an
// answer multiset.
func runDifferentialConfig(opts DifferentialOptions, workload []diffQuery, parallelism int, withMemo, adaptive bool) (*diffRun, error) {
	var mcfg *memo.Config
	if withMemo {
		c := memo.DefaultConfig()
		mcfg = &c
	}
	tbOpts := TestbedOptions{
		RouteViaCIM:    true,
		WithInvariants: true,
		Seed:           uint64(opts.Seed),
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
		return nil, err
	}
	run := &diffRun{
		cfg: DifferentialConfig{
			Name:        name,
			Parallelism: parallelism,
			Memo:        withMemo,
			Adaptive:    adaptive,
		},
		results: make([][]string, len(workload)),
	}
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
			return nil, fmt.Errorf("differential: plan %s: %w", q.Text, err)
		}
		answers, metrics, err := runPlan(tb.Sys, plan)
		if err != nil {
			run.cfg.Errors++
			continue
		}
		run.results[i] = answerMultiset(answers)
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
	run.cfg.MeanMS = ms(sumAll, repeats+fresh)
	run.cfg.RepeatMeanMS = ms(sumRepeat, repeats)
	run.cfg.FreshMeanMS = ms(sumFresh, fresh)
	if tb.Sys.Memo != nil {
		st := tb.Sys.Memo.Stats()
		run.cfg.MemoStats = st
		if probes := st.Hits + st.Misses; probes > 0 {
			run.cfg.HitRate = float64(st.Hits) / float64(probes)
		}
	}
	return run, nil
}

// RunDifferential replays the generated workload under memo off/on at
// every requested parallelism and diffs each configuration's per-query
// answer multisets against the baseline (memo off, lowest parallelism).
func RunDifferential(opts DifferentialOptions) (*DifferentialReport, error) {
	workload := differentialWorkload(opts.Seed, opts.Queries, opts.RepeatFraction)
	repeats := 0
	for _, q := range workload {
		if q.Repeat {
			repeats++
		}
	}
	report := &DifferentialReport{Seed: opts.Seed, Queries: len(workload), Repeats: repeats}

	var runs []*diffRun
	for _, p := range opts.Parallelism {
		for _, withMemo := range []bool{false, true} {
			run, err := runDifferentialConfig(opts, workload, p, withMemo, false)
			if err != nil {
				return nil, err
			}
			runs = append(runs, run)
		}
	}
	// One adaptive cell at the widest engine: optimizer-chosen plans under
	// inflated costing and the watchdog, against the same pinned baseline.
	adaptiveRun, err := runDifferentialConfig(opts, workload,
		opts.Parallelism[len(opts.Parallelism)-1], true, true)
	if err != nil {
		return nil, err
	}
	runs = append(runs, adaptiveRun)
	baseline := runs[0]
	for _, run := range runs {
		for i := range workload {
			want, got := baseline.results[i], run.results[i]
			if want == nil || got == nil {
				// Errors are counted separately; only compare answered
				// queries (a passing run has zero errors anyway).
				continue
			}
			if !multisetsEqual(want, got) {
				run.cfg.Mismatches++
				report.TotalMismatches++
				if len(report.MismatchDetails) < 8 {
					report.MismatchDetails = append(report.MismatchDetails,
						fmt.Sprintf("%s q[%d] %s: %d answers vs baseline %d",
							run.cfg.Name, i, workload[i].Text, len(got), len(want)))
				}
			}
		}
		report.Configs = append(report.Configs, run.cfg)
	}
	return report, nil
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
		b.WriteString("answer multisets identical across all configurations\n")
	} else {
		fmt.Fprintf(&b, "%d MISMATCHES\n", rep.TotalMismatches)
		for _, d := range rep.MismatchDetails {
			b.WriteString("  " + d + "\n")
		}
	}
	return b.String()
}
