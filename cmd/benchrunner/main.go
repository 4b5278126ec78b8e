// Command benchrunner regenerates the paper's tables and figures on the
// simulated federation. Each figure prints in a format mirroring the
// paper's layout; see EXPERIMENTS.md for the paper-vs-measured comparison.
//
// Usage:
//
//	benchrunner -fig all
//	benchrunner -fig 5        # remote calls with caching and/or invariants
//	benchrunner -fig 6        # utility of the DCSM (lossless vs lossy)
//	benchrunner -fig plan     # §8 plan-choice claims
//	benchrunner -fig ablations
//	benchrunner -fig parallel # intra-query parallelism speedups (also
//	                          # writes BENCH_parallel.json)
//	benchrunner -fig admission # inter-query admission control fairness
//	                           # (also writes BENCH_admission.json)
//	benchrunner -fig calibration # DCSM estimate error shrinking as the
//	                             # statistics warm (also writes
//	                             # BENCH_calibration.json)
//	benchrunner -fig memo     # rule-level memo cache differential harness
//	                          # against the soundness oracle and
//	                          # repeat-query latency (also writes
//	                          # BENCH_memo.json)
//	benchrunner -fig adaptive # calibration-driven adaptive planning vs a
//	                          # calibration-blind optimizer on a repeat
//	                          # workload (also writes BENCH_adaptive.json)
//	benchrunner -fig invindex # invariant discrimination index: probe
//	                          # latency scaling to 10k invariants plus a
//	                          # differential against the soundness oracle
//	                          # (also writes BENCH_invindex.json)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"hermes/internal/experiments"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 2, 3, 4, 5, 6, plan, ablations, optquality, hitrate, availability, parallel, admission, calibration, memo, adaptive, invindex, all")
	out := flag.String("out", "", "where the JSON-writing figures (parallel, admission, calibration, memo, adaptive, invindex) put their result; default BENCH_<fig>.json")
	flag.Parse()
	if err := run(*fig, *out); err != nil {
		fmt.Fprintln(os.Stderr, "benchrunner:", err)
		os.Exit(1)
	}
}

func run(fig, out string) error {
	section := func(title string) {
		fmt.Println()
		fmt.Println("=== " + title + " ===")
		fmt.Println()
	}
	want := func(name string) bool { return fig == "all" || fig == name }

	if want("2") {
		section("Figure 2: cost vector database")
		fmt.Println(experiments.Figure2())
	}
	if want("3") {
		section("Figure 3: loss-less summarizations")
		s, err := experiments.Figure3()
		if err != nil {
			return err
		}
		fmt.Println(s)
	}
	if want("4") {
		section("Figure 4: lossy summarizations (droppability analysis)")
		s, err := experiments.Figure4()
		if err != nil {
			return err
		}
		fmt.Println(s)
	}
	if want("5") {
		section("Figure 5: executing remote calls with caching and/or invariants")
		rows, err := experiments.Figure5()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFigure5(rows))
	}
	if want("6") {
		section("Figure 6: the utility of the DCSM (actual vs lossless vs lossy predictions)")
		rows, err := experiments.Figure6()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatFigure6(rows))
	}
	if want("plan") {
		section("§8 plan choice: does the DCSM pick the faster rewriting?")
		rows, err := experiments.PlanChoice()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatPlanChoice(rows))
	}
	if want("ablations") {
		section("Ablation: summarization granularity")
		s1, err := experiments.AblationSummarization()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatSummarization(s1))

		section("Ablation: recency-weighted statistics under network drift")
		s2, err := experiments.AblationRecency()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatRecency(s2))

		section("Ablation: cache eviction policy")
		s3, err := experiments.AblationCachePolicy()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatCachePolicy(s3))

		section("Ablation: parallel vs serial completion of partial answers")
		s4, err := experiments.AblationParallelPartial()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatParallelPartial(s4))
	}
	if want("optquality") {
		section("Optimizer quality: chosen vs best vs worst plan over random queries")
		rows, err := experiments.OptimizerQuality(10)
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatOptimizerQuality(rows))
	}
	if want("hitrate") {
		section("Cache and invariant hit rates over a skewed call stream")
		rows, err := experiments.HitRate()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatHitRate(rows))
	}
	writeJSON := func(def string, v any) error {
		path := out
		if path == "" {
			path = def
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
		return nil
	}
	if want("parallel") {
		section("Parallel operator pipeline: speedup vs Parallelism")
		res, err := experiments.ParallelSpeedup()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatParallel(res))
		if err := writeJSON("BENCH_parallel.json", res); err != nil {
			return err
		}
	}
	if want("admission") {
		section("Inter-query admission control: fairness under concurrent sessions")
		res, err := experiments.AdmissionFairness()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAdmission(res))
		if err := writeJSON("BENCH_admission.json", res); err != nil {
			return err
		}
	}
	if want("calibration") {
		section("DCSM calibration: estimate q-error as statistics warm")
		res, err := experiments.CalibrationWarmup()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatCalibration(res))
		if err := writeJSON("BENCH_calibration.json", res); err != nil {
			return err
		}
	}
	if want("availability") {
		section("Query result caching under source unavailability")
		rows, err := experiments.Availability()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAvailability(rows))
	}
	if want("memo") {
		section("Rule-level memo cache: differential harness and repeat-query latency")
		rep, err := experiments.RunDifferential()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatDifferential(rep))
		if err := writeJSON("BENCH_memo.json", rep); err != nil {
			return err
		}
	}
	if want("adaptive") {
		section("Adaptive planning: calibration-inflated costing vs a calibration-blind optimizer")
		res, err := experiments.AdaptivePlanning()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatAdaptive(res))
		if err := writeJSON("BENCH_adaptive.json", res); err != nil {
			return err
		}
	}
	if want("invindex") {
		section("Invariant discrimination index: probe latency scaling and a differential against the oracle")
		res, err := experiments.InvindexScaling()
		if err != nil {
			return err
		}
		fmt.Println(experiments.FormatInvindex(res))
		if err := writeJSON("BENCH_invindex.json", res); err != nil {
			return err
		}
	}
	return nil
}
