package main

import (
	"reflect"
	"testing"
)

// tinyN sizes each workload for the smoke tests.
var tinyN = map[string]int{"cache_hot": 64, "cache_churn": 64, "join_scan": 16, "two_hop": 8}

// TestDeclaredMetrics runs every workload at tiny N, untraced and traced,
// and checks that BENCHMARK.json declares exactly the workloads run and
// exactly the metric names and units emitted.
func TestDeclaredMetrics(t *testing.T) {
	decl, err := readDeclared()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames)
	}
	want := []map[string]string{{}, {}}
	for _, m := range decl.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range decl.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, name := range workloadNames {
		for trace := 0; trace <= 1; trace++ {
			res, _, err := measure(name, 1, 0, trace, tinyN[name])
			if err != nil {
				t.Fatalf("%s trace %d: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace %d: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for k, r := range res.Metrics {
				got[k] = r.Unit
			}
			if !reflect.DeepEqual(got, want[trace]) {
				t.Errorf("%s trace %d: emitted %v, BENCHMARK.json declares %v", name, trace, got, want[trace])
			}
		}
	}
}

// TestSeedDeterminism checks that a seed fixes the inputs and, under one
// client, every count the layers report; and that another seed changes the
// inputs.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range workloadNames {
		a, err := newSpec(name, 7, tinyN[name])
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newSpec(name, 7, tinyN[name])
		c, _ := newSpec(name, 8, 400)
		d, _ := newSpec(name, 7, 400)
		if !reflect.DeepEqual(a.queries, b.queries) || !reflect.DeepEqual(a.warm, b.warm) {
			t.Errorf("%s: seed 7 gave two different query lists", name)
		}
		if reflect.DeepEqual(c.queries, d.queries) {
			t.Errorf("%s: seeds 7 and 8 gave the same query list", name)
		}

		want, err := oracle(a.warm, a.queries)
		if err != nil {
			t.Fatal(err)
		}
		var counts [2]map[string]float64
		for i := range counts {
			layers, _, _, _, err := tracedRound(a, want)
			if err != nil {
				t.Fatal(err)
			}
			timed, _, _, err := timedRound(a, want, 1)
			if err != nil {
				t.Fatal(err)
			}
			counts[i] = map[string]float64{"source_calls_per_query": timed["source_calls_per_query"]}
			for _, m := range perLayer {
				if m.unit == "count" {
					counts[i][m.name] = layers[m.name]
				}
			}
		}
		if !reflect.DeepEqual(counts[0], counts[1]) {
			t.Errorf("%s: counts differ between two runs of one seed:\n%v\n%v", name, counts[0], counts[1])
		}
	}
}

// TestCorruptedOracle checks that a wrong answer multiset is counted as a
// failed query.
func TestCorruptedOracle(t *testing.T) {
	sp, err := newSpec("cache_churn", 1, tinyN["cache_churn"])
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracle(sp.warm, sp.queries)
	if err != nil {
		t.Fatal(err)
	}
	bad := want[sp.queries[3]]
	bad.hash++
	want[sp.queries[3]] = bad
	vals, attempted, failed, err := timedRound(sp, want, 1)
	if err != nil {
		t.Fatal(err)
	}
	if failed == 0 || failed > attempted || vals["correct_share"] >= 1 {
		t.Errorf("corrupted oracle entry: failed=%d of %d, correct_share=%v", failed, attempted, vals["correct_share"])
	}
}
