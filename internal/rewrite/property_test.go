package rewrite

import (
	"fmt"
	"math/rand"
	"testing"

	"hermes/internal/lang"
	"hermes/internal/term"
)

// genFlatProgram builds a random single-predicate program whose body mixes
// producer calls (fresh output, possibly consuming earlier variables) and
// filters, with a random dependency structure.
func genFlatProgram(rng *rand.Rand) (string, int) {
	n := 2 + rng.Intn(4)
	vars := []string{}
	body := ""
	for i := 0; i < n; i++ {
		out := fmt.Sprintf("V%d", i)
		var args string
		if len(vars) > 0 && rng.Intn(2) == 0 {
			args = vars[rng.Intn(len(vars))]
		}
		if body != "" {
			body += " & "
		}
		body += fmt.Sprintf("in(%s, d:f%d(%s))", out, i, args)
		vars = append(vars, out)
	}
	head := "p("
	for i, v := range vars {
		if i > 0 {
			head += ", "
		}
		head += v
	}
	head += ")"
	return head + " :- " + body + ".", n
}

// TestRandomProgramsPlanValidity: for random dependency structures, every
// plan the rewriter emits executes each call only after its argument
// variables are bound, and at least one plan exists (the textual order is
// always valid for these generated programs).
func TestRandomProgramsPlanValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		src, n := genFlatProgram(rng)
		prog, err := lang.ParseProgram(src)
		if err != nil {
			t.Fatalf("trial %d: parse %q: %v", trial, src, err)
		}
		rw := New(prog, Config{}, nil)
		queryVars := "V0"
		for i := 1; i < n; i++ {
			queryVars += fmt.Sprintf(", V%d", i)
		}
		plans, err := rw.Plans(mustQuery(t, "?- p("+queryVars+")."))
		if err != nil {
			t.Fatalf("trial %d: %q unplannable: %v", trial, src, err)
		}
		for pi, p := range plans {
			for key, rules := range p.Rules {
				for _, pr := range rules {
					validateOrdering(t, trial, pi, key, pr)
				}
			}
		}
	}
}

// validateOrdering re-simulates a plan rule's ordering, requiring every
// literal to be schedulable when reached.
func validateOrdering(t *testing.T, trial, plan int, key PredKey, pr *PlanRule) {
	t.Helper()
	bound := HeadBoundVars(pr.Rule, key.Adorn)
	for _, bi := range pr.Order {
		lit := pr.Rule.Body[bi]
		ok, binds := schedulable(lit, bound)
		if !ok {
			t.Fatalf("trial %d plan %d: literal %s unschedulable in %s", trial, plan, lit, pr)
		}
		for _, v := range binds {
			bound[v] = true
		}
	}
}

// TestAdornmentConsistency: AtomAdornment agrees with groundness under any
// substitution state.
func TestAdornmentConsistency(t *testing.T) {
	a := &lang.Atom{Pred: "p", Args: []term.Term{
		term.C(term.Int(1)), term.V("X"), term.V("Y"), term.V("R", "f"),
	}}
	cases := []struct {
		bound map[string]bool
		want  Adornment
	}{
		{map[string]bool{}, "bfff"},
		{map[string]bool{"X": true}, "bbff"},
		{map[string]bool{"X": true, "Y": true, "R": true}, "bbbb"},
	}
	for _, c := range cases {
		if got := AtomAdornment(a, c.bound); got != c.want {
			t.Errorf("bound %v: adornment %q, want %q", c.bound, got, c.want)
		}
	}
}
