package rewrite_test

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
)

// TestPreparedPlansMatchFresh runs the property test's random programs
// through a mediator: each query, asked and then asked again with other
// constants in the same argument positions, gets from System.PlansFor, from
// System.Plans on its text, and from a Planner's lexer-keyed table, which
// lifts the second ask's constants into the first's shape, exactly the
// plans a fresh rewriter enumerates for it — the same count, order,
// rendering, query line and fingerprint. Each plan, run through the program
// compiled for the first ask, answers as the fresh plan compiled anew.
func TestPreparedPlansMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		src, n := rewrite.GenFlatProgram(rng)
		sys := core.NewSystem(core.Options{})
		if err := sys.LoadProgram(src); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		sys.Register(sourceFor(sys.Program))
		cfg := rewrite.Config{CIMDomains: map[string]bool{"d": true}}
		planner := rewrite.NewPlanner(rewrite.New(sys.Program, cfg, sys.Registry))
		// Each argument is a variable or, by the mask, a constant whose
		// kind alternates with its position and whose value changes with
		// the ask.
		mask := rng.Intn(1 << n)
		for ask := 0; ask < 2; ask++ {
			args := make([]string, n)
			for i := range args {
				switch {
				case mask&(1<<i) == 0:
					args[i] = fmt.Sprintf("V%d", i)
				case i%2 == 0:
					args[i] = fmt.Sprint(10*ask + i)
				default:
					args[i] = fmt.Sprintf("'c%d'", 10*ask+i)
				}
			}
			q := "?- p(" + strings.Join(args, ", ") + ")."
			toks, err := lang.LexQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			lexed, hit := planner.Prepared(toks)
			if hit != (ask == 1) {
				t.Fatalf("trial %d, %s: a lexer-keyed hit is %v on ask %d", trial, q, hit, ask+1)
			}
			if !hit {
				tp, err := lang.ParseTemplate(toks)
				if err != nil {
					t.Fatal(err)
				}
				lexed, err = planner.PlansFrom(toks, tp)
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := samePlans(sys, cfg, q, lexed); err != nil {
				t.Fatalf("trial %d, %s over %s: %v", trial, q, src, err)
			}
		}
	}
}

// sourceFor returns the domain d with every function a program calls: one
// without arguments answers some of the constants either ask can hold,
// one with an argument x answers x, and x+1 too for an integer.
func sourceFor(prog *lang.Program) *domaintest.Domain {
	d := domaintest.New("d")
	for _, r := range prog.Rules {
		for _, lit := range r.Body {
			in := lit.(*lang.InCall)
			d.Define(in.Call.Function, domaintest.Func{Arity: len(in.Call.Args), Fn: func(args []term.Value) ([]term.Value, error) {
				if len(args) == 0 {
					return []term.Value{term.Int(0), term.Int(2), term.Int(10), term.Int(12), term.Str("c1"), term.Str("c11")}, nil
				}
				if x, ok := args[0].(term.Int); ok {
					return []term.Value{x, x + 1}, nil
				}
				return args, nil
			}})
		}
	}
	return d
}

// samePlans compares sys.PlansFor(q), sys.Plans(q) and lexed with a fresh
// rewriter's plans for q over the same program, configuration and
// registry, and each plan's answers with the fresh plan's.
func samePlans(sys *core.System, cfg rewrite.Config, q string, lexed []*rewrite.Plan) error {
	pq, err := lang.ParseQuery(q)
	if err != nil {
		return err
	}
	want, werr := rewrite.New(sys.Program, cfg, sys.Registry).Plans(pq)
	got, gerr := sys.PlansFor(pq)
	text, terr := sys.Plans(q)
	for _, c := range []struct {
		name  string
		plans []*rewrite.Plan
		err   error
	}{{"PlansFor", got, gerr}, {"Plans", text, terr}, {"lexer-keyed", lexed, nil}} {
		if (c.err == nil) != (werr == nil) {
			return fmt.Errorf("%s error %v, fresh error %v", c.name, c.err, werr)
		}
		if len(c.plans) != len(want) {
			return fmt.Errorf("%s: %d plans, fresh %d", c.name, len(c.plans), len(want))
		}
		for i := range want {
			got := c.plans[i]
			switch {
			case got.String() != want[i].String():
				return fmt.Errorf("%s: plan %d:\n%s\nfresh:\n%s", c.name, i+1, got, want[i])
			case string(got.AppendQueryLine(nil)) != string(want[i].AppendQueryLine(nil)):
				return fmt.Errorf("%s: plan %d: query line %s, fresh %s", c.name, i+1, string(got.AppendQueryLine(nil)), string(want[i].AppendQueryLine(nil)))
			case got.Fingerprint() != want[i].Fingerprint():
				return fmt.Errorf("%s: plan %d: fingerprint %x, fresh %x", c.name, i+1, got.Fingerprint(), want[i].Fingerprint())
			}
			if a, b := answers(sys, got), answers(sys, want[i]); a != b {
				return fmt.Errorf("%s: plan %d answers %s, fresh %s", c.name, i+1, a, b)
			}
		}
	}
	return nil
}

// answers runs a plan and renders its answers, sorted, or its error.
func answers(sys *core.System, p *rewrite.Plan) string {
	cur, err := sys.Execute(p)
	if err != nil {
		return "error: " + err.Error()
	}
	as, _, err := engine.CollectAll(cur)
	if err != nil {
		return "error: " + err.Error()
	}
	out := make([]string, len(as))
	for i, a := range as {
		out[i] = a.String()
	}
	slices.Sort(out)
	return strings.Join(out, " ")
}
