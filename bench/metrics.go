package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metric names one reported number. BENCHMARK.json repeats these names and
// units and adds each end-to-end metric's direction and bound; the smoke
// test holds the two in step.
type metric struct{ name, unit string }

// endToEnd are the metrics a caller of the mediator would see, measured
// with tracing off.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"query_ms_p50", "ms"},
	{"query_ms_p95", "ms"},
	{"first_answer_ms_p50", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"allocs_per_query", "count"},
	{"alloc_kb_per_query", "KiB"},
	{"source_calls_per_query", "count"},
	{"heap_live_mb", "MiB"},
	{"correct_share", "share"},
}

// perLayer are the single-layer metrics of the traced run, named after
// this repository's packages.
var perLayer = []metric{
	{"admission.admit_us", "us"},
	{"core.query_self_us", "us"},
	{"lang.parse_us", "us"},
	{"rewrite.plans_us", "us"},
	{"rewrite.plans_per_query", "count"},
	{"estimate.plan_cost_us", "us"},
	{"dcsm.cost_us", "us"},
	{"dcsm.observe_us", "us"},
	{"dcsm.raw_records", "count"},
	{"dcsm.estimates_raw", "count"},
	{"dcsm.observations", "count"},
	{"cim.exact_us", "us"},
	{"cim.equality_us", "us"},
	{"cim.partial_us", "us"},
	{"cim.miss_us", "us"},
	{"cim.hit_ratio", "share"},
	{"cim.exact_hits", "count"},
	{"cim.equality_hits", "count"},
	{"cim.partial_hits", "count"},
	{"cim.misses", "count"},
	{"cim.evictions", "count"},
	{"cim.entries", "count"},
	{"invindex.candidates_per_probe", "count"},
	{"memo.hit_ratio", "share"},
	{"memo.hits", "count"},
	{"memo.stores", "count"},
	{"memo.invalidations", "count"},
	{"memo.evictions", "count"},
	{"memo.entries", "count"},
	{"engine.execute_self_us", "us"},
	{"engine.first_answer_us", "us"},
	{"engine.answers_per_query", "count"},
	{"engine.calls_direct", "count"},
	{"engine.calls_cim", "count"},
	{"engine.sim_tall_ms_mean", "ms"},
	{"source.call_us", "us"},
	{"source.calls", "count"},
	{"source.answers_per_call", "count"},
	{"remote.call_us", "us"},
	{"remote.first_value_us", "us"},
	{"remote.calls", "count"},
	{"remote.resumes", "count"},
	{"term.encode_json_us", "us"},
	{"term.decode_json_us", "us"},
	{"term.values_per_call", "count"},
	{"resilience.retries", "count"},
	{"resilience.breaker_rejections", "count"},
	{"obs.explain_us", "us"},
	{"obs.explain_bytes", "B"},
	{"obs.spans_per_query", "count"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.spans", "count"},
}

// result is one run: the line the driver reads, plus what a result file
// needs to be compared with another.
type result struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`
	// rounds holds every round's value of each metric, in round order.
	rounds map[string][]float64
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the q-quantile of xs by nearest rank, sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median sorts xs and returns its middle.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return quartile(xs, 2)
}

// quartile is the k-th quartile of sorted xs as Python's
// statistics.quantiles(xs, n=4) computes it (the exclusive method), which is
// what the driver of BENCHMARK.json uses for spreads.
func quartile(xs []float64, k int) float64 {
	switch len(xs) {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	pos := float64(k) * float64(len(xs)+1) / 4
	i := int(pos)
	if i < 1 {
		i = 1
	}
	if i > len(xs)-1 {
		i = len(xs) - 1
	}
	return xs[i-1] + (pos-float64(i))*(xs[i]-xs[i-1])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// declared is what BENCHMARK.json says about the workloads and metrics; the
// file is in the working directory when the benchmark runs from the
// repository root and one level up under go test.
type declared struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readDeclared() (*declared, error) {
	var raw []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if raw, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &d, nil
}
