// Command benchrunner regenerates the paper's tables and figures on the
// simulated federation. Each figure prints in a format mirroring the
// paper's layout; see EXPERIMENTS.md for the paper-vs-measured comparison.
// The figures are the rows of experiments.Figures, run in its order; -fig
// selects one by name, or all of them.
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
//
// An unknown name prints nothing.
package main

import (
	"cmp"
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

// run prints every figure named fig (all of them for "all") and writes
// the result of each JSON one to out, or to BENCH_<name>.json.
func run(fig, out string) error {
	for _, f := range experiments.Figures {
		if fig != "all" && fig != f.Name {
			continue
		}
		fmt.Printf("\n=== %s ===\n\n", f.Title)
		text, res, err := f.Run()
		if err != nil {
			return err
		}
		fmt.Println(text)
		if !f.JSON {
			continue
		}
		data, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		path := cmp.Or(out, "BENCH_"+f.Name+".json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", path)
	}
	return nil
}
