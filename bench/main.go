// Command bench is the wall-clock mediator-overhead benchmark that
// BENCHMARK.json declares: a closed-loop driver over four seeded workloads
// that reports eleven end-to-end metrics with tracing off and, in a
// separate single-client traced run, the per-layer metrics. README.md
// explains the workloads, the metrics and how they interact.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload cache_hot --seed 1 --seconds 24 --trace 0
//	bash bench/run.sh --workload cache_hot --repeat 10
//	bash bench/run.sh --all
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// outDir receives result files and span dumps; .gitignore names it.
const outDir = ".bench_build"

func main() {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "orders the workload's query pool")
	seconds := flag.Float64("seconds", 24, "how long to measure")
	trace := flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics from the traced run")
	repeat := flag.Int("repeat", 0, "run the workload this many times on consecutive seeds and print each end-to-end metric's median and spread")
	all := flag.Bool("all", false, "run every workload, untraced and traced, and print every metric by name")
	flag.Parse()

	var err error
	switch {
	case *all:
		err = runAll(*seed, *seconds)
	case *repeat > 0:
		err = runRepeat(*name, *seed, *seconds, *repeat)
	default:
		var res *result
		if res, err = run(*name, *seed, *seconds, *trace); err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure generates the workload's inputs, evaluates them on the oracle and
// measures for the given time: end-to-end metrics with tracing off, or the
// per-layer metrics from the traced run, whose last round's spans it also
// returns.
func measure(name string, seed int64, seconds float64, trace, n int) (*result, *recorder, error) {
	sp, err := newSpec(name, seed, n)
	if err != nil {
		return nil, nil, err
	}
	want, err := oracle(sp.warm, sp.queries)
	if err != nil {
		return nil, nil, err
	}
	if trace == 0 {
		res, err := runRounds(endToEnd, seconds, func() (map[string]float64, int, int, error) {
			return timedRound(sp, want, clients)
		})
		return res, nil, err
	}
	var rec *recorder
	res, err := runRounds(perLayer, seconds, func() (vals map[string]float64, attempted, failed int, err error) {
		vals, attempted, failed, rec, err = tracedRound(sp, want)
		return
	})
	return res, rec, err
}

// run measures one workload once and writes its result file, and after a
// traced run its spans, under outDir.
func run(name string, seed int64, seconds float64, trace int) (*result, error) {
	res, rec, err := measure(name, seed, seconds, trace, baseN[name])
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	if rec != nil {
		if err := rec.writeJSONL(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", name, seed))); err != nil {
			return nil, err
		}
	}
	return res, writeResultFile(res, name, seed, seconds, trace)
}

// writeResultFile keeps the run with what is needed to compare it with
// another: commit, toolchain, processors, seed, N and sample counts.
func writeResultFile(res *result, name string, seed int64, seconds float64, trace int) error {
	sha := "unknown"
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	file := struct {
		Workload   string               `json:"workload"`
		Seed       int64                `json:"seed"`
		Seconds    float64              `json:"seconds"`
		Trace      int                  `json:"trace"`
		N          int                  `json:"queries_per_round"`
		Clients    int                  `json:"clients"`
		GitSHA     string               `json:"git_sha"`
		GoVersion  string               `json:"go_version"`
		GOMAXPROCS int                  `json:"gomaxprocs"`
		NumCPU     int                  `json:"nproc"`
		Rounds     map[string][]float64 `json:"rounds"`
		Result     *result              `json:"result"`
	}{name, seed, seconds, trace, baseN[name], clients, sha, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), res.rounds, res}
	raw, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", name, seed, trace)), raw, 0o644)
}

// runAll prints every metric of every workload by name with its unit.
func runAll(seed int64, seconds float64) error {
	for _, name := range workloadNames {
		for trace, decl := range [][]metric{endToEnd, perLayer} {
			res, err := run(name, seed, seconds, trace)
			if err != nil {
				return err
			}
			for _, m := range decl {
				fmt.Printf("%-12s %-30s %14.4f %s\n", name, m.name, res.Metrics[m.name].Value, m.unit)
			}
			fmt.Printf("%-12s correct=%v attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
		}
	}
	return nil
}

// runRepeat runs the workload k times on seeds seed..seed+k-1 and prints,
// for each end-to-end metric, the median and the spread between the first
// and third quartile as a share of the median, next to the metric's bound.
// A metric whose spread exceeds its bound cannot resolve a change of that
// size, so it is flagged unresolved, which is not the same as unchanged.
func runRepeat(name string, seed int64, seconds float64, k int) error {
	decl, err := readDeclared()
	if err != nil {
		return err
	}
	runs := map[string][]float64{}
	for i := 0; i < k; i++ {
		res, err := run(name, seed+int64(i), seconds, 0)
		if err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s seed %d: %d of %d queries failed", name, seed+int64(i), res.Failed, res.Attempted)
		}
		for m, r := range res.Metrics {
			runs[m] = append(runs[m], r.Value)
		}
	}
	fmt.Printf("%s: %d runs of %gs, seeds %d..%d\n", name, k, seconds, seed, seed+int64(k)-1)
	fmt.Printf("%-24s %14s %-6s %8s %8s\n", "metric", "median", "unit", "spread", "bound")
	for _, m := range decl.EndToEnd {
		vs := runs[m.Name]
		sort.Float64s(vs)
		med := median(vs)
		spread := ratio(quartile(vs, 3)-quartile(vs, 1), med)
		flag := ""
		if spread > m.Bound {
			flag = "  unresolved"
		}
		fmt.Printf("%-24s %14.4f %-6s %7.2f%% %7.2f%%%s\n", m.Name, med, m.Unit, 100*spread, 100*m.Bound, flag)
	}
	return nil
}
