package oracle_test

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hermes/internal/core"
	"hermes/internal/domain/domaintest"
	"hermes/internal/engine"
	"hermes/internal/lang"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/workload"
)

// TestPreparedPlansMatchFresh asks every query template of the soundness
// property, plain and α-renamed, and then again with other constants, plus
// a selection the rewriter pushes into the source: each time the plans
// System.PlansFor hands out, and those System.Plans lifts from the text of
// a query whose shape it holds, equal a fresh rewriter's plans for the
// query in count, order, rendering, query line and fingerprint, and each
// answers, through the program compiled for its shape, as the fresh plan
// compiled anew.
func TestPreparedPlansMatchFresh(t *testing.T) {
	store, rel := workload.Federation(workload.FederationConfig{Videos: 2, FramesMin: 60, FramesMax: 160,
		ObjectsMax: 30, Tables: 2, RowsMax: 24, Seed: 1})
	aux := domaintest.New("aux")
	aux.Define("tick", domaintest.Func{Arity: 1, Fn: func(args []term.Value) ([]term.Value, error) { return args, nil }})
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
		want, werr := rewrite.New(sys.Program, cfg, sys.Registry).Plans(pq)
		got, gerr := sys.PlansFor(pq)
		text, terr := sys.Plans(q)
		for _, c := range []struct {
			name  string
			plans []*rewrite.Plan
			err   error
		}{{"PlansFor", got, gerr}, {"Plans", text, terr}} {
			if (c.err == nil) != (werr == nil) {
				t.Fatalf("%s: %s error %v, fresh error %v", q, c.name, c.err, werr)
			}
			if len(c.plans) != len(want) {
				t.Fatalf("%s: %s: %d plans, fresh %d", q, c.name, len(c.plans), len(want))
			}
			for i := range want {
				got := c.plans[i]
				switch {
				case got.String() != want[i].String():
					t.Fatalf("%s: %s: plan %d:\n%s\nfresh:\n%s", q, c.name, i+1, got, want[i])
				case string(got.AppendQueryLine(nil)) != string(want[i].AppendQueryLine(nil)):
					t.Fatalf("%s: %s: plan %d: query line %s, fresh %s", q, c.name, i+1, string(got.AppendQueryLine(nil)), string(want[i].AppendQueryLine(nil)))
				case got.Fingerprint() != want[i].Fingerprint():
					t.Fatalf("%s: %s: plan %d: fingerprint %x, fresh %x", q, c.name, i+1, got.Fingerprint(), want[i].Fingerprint())
				}
				if a, b := planAnswers(t, sys, got), planAnswers(t, sys, want[i]); a != b {
					t.Fatalf("%s: %s: plan %d answers %s, fresh %s", q, c.name, i+1, a, b)
				}
			}
		}
		if pushed[q] && !strings.Contains(string(got[0].AppendQueryLine(nil)), "rel:equal(") {
			t.Fatalf("%s: selection not pushed into the source: %s", q, string(got[0].AppendQueryLine(nil)))
		}
	}
}

// planAnswers runs a plan and renders its answers, sorted.
func planAnswers(t *testing.T, sys *core.System, p *rewrite.Plan) string {
	t.Helper()
	cur, err := sys.Execute(p)
	if err != nil {
		t.Fatal(err)
	}
	as, _, err := engine.CollectAll(cur)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}
