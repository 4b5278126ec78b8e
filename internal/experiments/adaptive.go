package experiments

import (
	"fmt"
	"strings"
	"time"

	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/engine"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/oracle"
	"hermes/internal/term"
)

// The adaptive-planning experiment closes the feedback loop the paper's
// architecture leaves open: the DCSM prefers a source's native cost model
// over its own statistics (§6), so a source whose model is badly wrong
// misleads the optimizer on every query, forever — the statistics it
// would need to recover are shadowed by the native estimate. Calibration
// (q-error tracking of estimate vs measurement) sees the lie immediately;
// this experiment measures what plan choice gains by acting on it.
//
// The federation is two access-equivalent mirrors of one lookup service.
// mirrora ships a native estimator claiming ~50 ms per call but actually
// takes ~1.9 s; mirrorb's model is roughly honest (~350 ms claimed,
// ~400 ms actual). A calibration-blind optimizer picks the lying mirror
// every round. The adaptive optimizer inflates each call's estimate by
// the observed pessimistic q-error quantile, so from round 2 on the lie
// is priced at its historical cost and the honest mirror wins.

// adaptiveProgram exposes the mirrored service: either rule alone is a
// complete way to answer fetch (access-equivalent union).
const adaptiveProgram = `
	access_equivalent('fetch', 2).
	fetch(K, V) :- in(V, mirrora:lookup(K)).
	fetch(K, V) :- in(V, mirrorb:lookup(K)).
`

// lyingMirror wraps a scriptable domain with a fixed native cost model:
// whatever the wrapped functions actually cost, EstimateCost always
// claims the configured vector.
type lyingMirror struct {
	*domaintest.Domain
	claim domain.CostVector
}

func (m *lyingMirror) EstimateCost(p domain.Pattern) (domain.CostVector, []string, bool) {
	return m.claim, nil, true
}

// newMirror builds one lookup mirror: keys k0..k5 map to three values
// each, identical across mirrors, with the given per-call latency and
// claimed cost vector.
func newMirror(name string, perCall time.Duration, claim domain.CostVector) *lyingMirror {
	d := domaintest.New(name)
	table := map[string][]term.Value{}
	for i := 0; i < 6; i++ {
		key := fmt.Sprintf("k%d", i)
		vals := make([]term.Value, 3)
		for j := range vals {
			vals[j] = term.Str(fmt.Sprintf("%s-v%d", key, j))
		}
		table[d.Key("lookup", term.Str(key))] = vals
	}
	d.Define("lookup", domaintest.Func{
		Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			return table[d.Key("lookup", args...)], nil
		},
		PerCall:   perCall,
		PerAnswer: 5 * time.Millisecond,
	})
	return &lyingMirror{Domain: d, claim: claim}
}

// adaptiveSystem wires the two-mirror federation. With adaptive=true the
// optimizer inflates estimates by the p90 q-error (cold functions by
// 1.5x); blind systems cost plans straight off the native claims.
func adaptiveSystem(adaptive bool) *core.System {
	opts := core.Options{
		DisableCIM:  true,
		Obs:         obs.NewObserver(),
		Parallelism: 1,
	}
	if adaptive {
		opts.CalInflateQuantile = 0.9
		opts.ColdStartInflation = 1.5
	}
	sys := core.NewSystem(paperProfile(opts))
	sys.Register(newMirror("mirrora", 1900*time.Millisecond,
		domain.CostVector{TFirst: 40 * time.Millisecond, TAll: 50 * time.Millisecond, Card: 3}))
	sys.Register(newMirror("mirrorb", 350*time.Millisecond,
		domain.CostVector{TFirst: 300 * time.Millisecond, TAll: 350 * time.Millisecond, Card: 3}))
	if err := sys.LoadProgram(adaptiveProgram); err != nil {
		panic(err) // static program, cannot fail
	}
	return sys
}

// AdaptiveRound is one query of the repeat workload under one optimizer
// mode.
type AdaptiveRound struct {
	Round  int    `json:"round"`
	Mode   string `json:"mode"` // "blind" or "adaptive"
	Chosen string `json:"chosen"`
	// EstMS is the optimizer's (possibly inflated) all-answers estimate
	// for the chosen plan; ActualMS what execution measured.
	EstMS    int64 `json:"est_ms"`
	ActualMS int64 `json:"actual_ms"`
	Answers  int   `json:"answers"`
}

// AdaptiveResult is the whole experiment, serialized to
// BENCH_adaptive.json by benchrunner -fig adaptive.
type AdaptiveResult struct {
	Rounds []AdaptiveRound `json:"rounds"`
	// Warm means rounds 2..n: the adaptive optimizer has calibration
	// history from round 1 onward.
	BlindWarmMeanMS    int64   `json:"blind_warm_mean_ms"`
	AdaptiveWarmMeanMS int64   `json:"adaptive_warm_mean_ms"`
	WarmImprovementPct float64 `json:"warm_improvement_pct"`
	// AnswersEqual asserts that both modes returned the reference
	// evaluator's answer multiset on every round (plan choice must never
	// change answers).
	AnswersEqual bool `json:"answers_equal"`
	// InflationApplied counts adaptive plan choices whose winning
	// estimate carried q-error or cold-start inflation.
	InflationApplied int64 `json:"inflation_applied"`
}

// chosenMirror reports which mirror a plan's single fetch rule calls.
func chosenMirror(planStr string) string {
	for _, m := range []string{"mirrora", "mirrorb"} {
		if strings.Contains(planStr, m) {
			return m
		}
	}
	return "?"
}

// AdaptivePlanning runs the repeat workload — the same six fetch queries,
// round after round — through a calibration-blind and an adaptive
// optimizer, recording per-round plan choice, estimate, and actual time.
func AdaptivePlanning() (*AdaptiveResult, error) {
	const rounds = 6
	systems := map[string]*core.System{
		"blind":    adaptiveSystem(false),
		"adaptive": adaptiveSystem(true),
	}
	prog, err := lang.ParseProgram(adaptiveProgram)
	if err != nil {
		return nil, err
	}
	// The reference evaluator reads a third, unwrapped pair of mirrors.
	mirrors := []domain.Domain{newMirror("mirrora", 0, domain.CostVector{}), newMirror("mirrorb", 0, domain.CostVector{})}
	res := &AdaptiveResult{AnswersEqual: true}
	for round := 1; round <= rounds; round++ {
		q := fmt.Sprintf("?- fetch('k%d', V).", (round-1)%6)
		pq, err := lang.ParseQuery(q)
		if err != nil {
			return nil, err
		}
		want, err := oracle.Eval(prog, pq, mirrors...)
		if err != nil {
			return nil, err
		}
		for _, mode := range []string{"blind", "adaptive"} {
			sys := systems[mode]
			plan, cv, err := sys.Optimize(q, false)
			if err != nil {
				return nil, fmt.Errorf("experiments: adaptive round %d (%s): %w", round, mode, err)
			}
			cur, err := sys.Execute(plan)
			if err != nil {
				return nil, err
			}
			ans, m, err := engine.CollectAll(cur)
			if err != nil {
				return nil, err
			}
			res.AnswersEqual = res.AnswersEqual && oracle.Equal(rows(ans), want)
			res.Rounds = append(res.Rounds, AdaptiveRound{
				Round:    round,
				Mode:     mode,
				Chosen:   chosenMirror(plan.String()),
				EstMS:    cv.TAll.Milliseconds(),
				ActualMS: m.TAll.Milliseconds(),
				Answers:  m.Answers,
			})
		}
	}
	var blindSum, adaptiveSum, warm int64
	for _, r := range res.Rounds {
		if r.Round < 2 {
			continue
		}
		switch r.Mode {
		case "blind":
			blindSum += r.ActualMS
			warm++
		case "adaptive":
			adaptiveSum += r.ActualMS
		}
	}
	if warm > 0 {
		res.BlindWarmMeanMS = blindSum / warm
		res.AdaptiveWarmMeanMS = adaptiveSum / warm
	}
	if res.BlindWarmMeanMS > 0 {
		res.WarmImprovementPct = round2(100 * float64(res.BlindWarmMeanMS-res.AdaptiveWarmMeanMS) /
			float64(res.BlindWarmMeanMS))
	}
	res.InflationApplied = systems["adaptive"].Obs.Counter("hermes_plan_inflation_applied_total").Value()
	return res, nil
}

// FormatAdaptive renders the per-round table with the warm-workload
// summary line.
func FormatAdaptive(res *AdaptiveResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-9s %-9s %10s %10s %8s\n", "round", "mode", "chosen", "est", "actual", "answers")
	for _, r := range res.Rounds {
		fmt.Fprintf(&b, "%-6d %-9s %-9s %8dms %8dms %8d\n",
			r.Round, r.Mode, r.Chosen, r.EstMS, r.ActualMS, r.Answers)
	}
	fmt.Fprintf(&b, "warm rounds (2+): blind mean %dms, adaptive mean %dms (%.1f%% better); answers equal: %v\n",
		res.BlindWarmMeanMS, res.AdaptiveWarmMeanMS, res.WarmImprovementPct, res.AnswersEqual)
	return b.String()
}
