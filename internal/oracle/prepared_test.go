package oracle_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hermes/internal/core"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/rewrite"
	"hermes/internal/workload"
)

// TestPreparedPlansMatchFresh asks every query template of the soundness
// property, plain and α-renamed, and then again with other constants, plus
// a selection the rewriter pushes into the source: each time the plans
// System.PlansFor hands out equal a fresh rewriter's plans for the query in
// count, order, rendering, query line and fingerprint.
func TestPreparedPlansMatchFresh(t *testing.T) {
	store, rel := workload.Federation(workload.FederationConfig{Videos: 2, FramesMin: 60, FramesMax: 160,
		ObjectsMax: 30, Tables: 2, RowsMax: 24, Seed: 1})
	aux := domaintest.New("aux")
	aux.Define("tick", domaintest.Func{Arity: 1})
	sys := core.NewSystem(core.Options{})
	sys.Register(store)
	sys.Register(rel)
	sys.Register(aux)
	sys.RouteThroughCIM("aux", false)
	if err := sys.LoadProgram(program(rand.New(rand.NewSource(3))) + invariants); err != nil {
		t.Fatal(err)
	}
	cfg := rewrite.Config{CIMDomains: map[string]bool{"avis": true, "rel": true, "aux": false}}

	var queries []string
	for kind := 0; kind <= 13; kind++ {
		for _, suffix := range []string{"", "R"} {
			queries = append(queries, render(kind, 0, 3, 40, suffix), render(kind, 1, 12, 71, suffix))
		}
	}
	pushed := map[string]bool{}
	for _, k := range []int{3, 17} {
		q := fmt.Sprintf("?- in(P, rel:all('table%02d')) & P.k = %d & =(P.v, X).", k%2, k)
		queries, pushed[q] = append(queries, q), true
	}
	for _, q := range queries {
		pq, err := lang.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		got, gerr := sys.PlansFor(pq)
		want, werr := rewrite.New(sys.Program, cfg, sys.Registry).Plans(pq)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("%s: PlansFor error %v, fresh error %v", q, gerr, werr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d plans, fresh %d", q, len(got), len(want))
		}
		for i := range want {
			switch {
			case got[i].String() != want[i].String():
				t.Fatalf("%s: plan %d:\n%s\nfresh:\n%s", q, i+1, got[i], want[i])
			case string(got[i].AppendQueryLine(nil)) != string(want[i].AppendQueryLine(nil)):
				t.Fatalf("%s: plan %d: query line %s, fresh %s", q, i+1, string(got[i].AppendQueryLine(nil)), string(want[i].AppendQueryLine(nil)))
			case got[i].Fingerprint() != want[i].Fingerprint():
				t.Fatalf("%s: plan %d: fingerprint %x, fresh %x", q, i+1, got[i].Fingerprint(), want[i].Fingerprint())
			}
		}
		if pushed[q] && !strings.Contains(string(got[0].AppendQueryLine(nil)), "rel:equal(") {
			t.Fatalf("%s: selection not pushed into the source: %s", q, string(got[0].AppendQueryLine(nil)))
		}
	}
}
