package estimate

import (
	"strings"
	"testing"
	"time"

	"hermes/internal/cim"
	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// TestCIMRoutedNonGroundPatternAddsLookup: for a call whose arguments are
// only known to be bound, the CIM decision cannot be probed; the estimate
// is the actual cost plus the cache lookup overhead.
func TestCIMRoutedNonGroundPatternAddsLookup(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func([]term.Value) ([]term.Value, error) { return nil, nil }})
	reg := domain.NewRegistry()
	reg.Register(d)
	ccfg := cim.DefaultConfig()
	ccfg.LookupCost = 100 * time.Millisecond
	mgr := cim.New(reg, ccfg)
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	obs(db, "d", "f", []term.Value{term.Int(1)}, 500, 500, 1)
	est := New(db, mgr)

	plans := plansForWithCfg(t, `
		v(X, Y) :- in(X, d:gen()), in(Y, d:f(X)).
		w(Y) :- in(Y, d:gen()).
	`, "?- v(X, Y).", rewrite.Config{CIMDomains: map[string]bool{"d": true}})
	obs(db, "d", "gen", nil, 100, 100, 1)
	p := findPlan(t, plans, "d:gen()", "d:f(X)")
	cv, _, err := est.PlanCost(p)
	if err != nil {
		t.Fatal(err)
	}
	// gen: ground (probe says miss) -> 100 + lookup 100; f($b): non-ground
	// -> 500 + lookup 100. Total Ta = 200 + 1·600 = 800ms.
	if cv.TAll != 800*time.Millisecond {
		t.Errorf("Ta = %v, want 800ms", cv.TAll)
	}
}

func plansForWithCfg(t *testing.T, src, query string, cfg rewrite.Config) []*rewrite.Plan {
	t.Helper()
	prog, err := lang.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := lang.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	plans, err := rewrite.New(prog, cfg, nil).Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// TestRecursiveCostingDepthError: costing a self-referencing plan reports
// the depth guard instead of hanging.
func TestRecursiveCostingDepthError(t *testing.T) {
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	obs(db, "d", "edge", []term.Value{term.Str("a")}, 10, 10, 1)
	est := New(db, nil)
	plans := plansFor(t, `
		walk(X, Y) :- in(Y, d:edge(X)).
		walk(X, Y) :- walk(X, Z), in(Y, d:edge(Z)).
	`, "?- walk('a', Y).")
	var recursive *rewrite.Plan
	for _, p := range plans {
		if len(p.Rules[rewrite.PredKey{Pred: "walk", Adorn: "bf"}]) == 2 {
			recursive = p
			break
		}
	}
	if recursive == nil {
		t.Skip("no self-referencing plan generated")
	}
	_, _, err := est.PlanCost(recursive)
	if err == nil || !strings.Contains(err.Error(), "recursion") {
		t.Errorf("err = %v, want recursion depth error", err)
	}
}

// TestPlanMissingAdornmentError: costing an atom whose (pred, adornment)
// the plan lacks is a clear error.
func TestPlanMissingAdornmentError(t *testing.T) {
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	est := New(db, nil)
	plans := plansFor(t, `v(X) :- in(X, d:f()).`, "?- v(X).")
	p := plans[0]
	// Sabotage: remove the rules.
	for k := range p.Rules {
		delete(p.Rules, k)
	}
	if _, _, err := est.PlanCost(p); err == nil {
		t.Error("missing adornment should error")
	}
}

// TestFirstAnswerFromFirstRule: an atom's Tf comes from its first rule.
func TestFirstAnswerFromFirstRule(t *testing.T) {
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	obs(db, "d", "fast", nil, 10, 100, 1)
	obs(db, "d", "slow", nil, 5000, 9000, 1)
	est := New(db, nil)
	plans := plansFor(t, `
		v(X) :- in(X, d:fast()).
		v(X) :- in(X, d:slow()).
	`, "?- v(X).")
	cv, _, err := est.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if cv.TFirst != 10*time.Millisecond {
		t.Errorf("Tf = %v, want first rule's 10ms", cv.TFirst)
	}
	// Ta and Card sum over the union's rules.
	if cv.TAll != 9100*time.Millisecond || cv.Card != 2 {
		t.Errorf("Ta=%v Card=%v", cv.TAll, cv.Card)
	}
}

// TestCallPatternKnownConstants: a call argument is a constant in the
// DCSM pattern when it is one, names a plan-time-known variable, or
// selects a path that resolves from a known record; anything else is $b.
// The pattern is built from the callee's compiled slots, with its head
// positions holding the values head unification would carry in.
func TestCallPatternKnownConstants(t *testing.T) {
	plans := plansFor(t, `
		p(X, T, Y) :- in(Z, d:f('k', X, T.loc, Y, X.f, Y.loc)).
	`, "?- in(X, d:a()) & in(T, d:b()) & in(Y, d:c()) & p(X, T, Y).")
	prog := plans[0].Program()
	lc := &prog.Query.Lits[len(prog.Query.Lits)-1]
	rules, err := prog.Rules(lc)
	if err != nil {
		t.Fatal(err)
	}
	rc := rules[0]
	st := costState{known: make([]term.Value, len(rc.Vars))}
	st.known[rc.Vars.Pos("X")] = term.Int(3)
	st.known[rc.Vars.Pos("T")] = term.NewRecord(term.Field{Name: "loc", Val: term.Str("d7")})
	got := st.callPattern(&rc.Lits[0], 0).String()
	if want := "d:f('k', 3, 'd7', $b, $b, $b)"; got != want {
		t.Errorf("callPattern = %s, want %s", got, want)
	}
}

// TestKnownValuesReachCallee: a constant of the query, given directly or
// assigned by X = const, flows through head unification into the callee's
// call, whose DCSM pattern is then ground (d:f(1)), not d:f($b).
func TestKnownValuesReachCallee(t *testing.T) {
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	obs(db, "d", "f", []term.Value{term.Int(1)}, 10, 10, 1)
	obs(db, "d", "f", []term.Value{term.Int(2)}, 1000, 1000, 1)
	est := New(db, nil)
	for _, q := range []string{"?- v(1, Y).", "?- X = 1 & v(X, Y)."} {
		plans := plansFor(t, `v(X, Y) :- in(Y, d:f(X)).`, q)
		cv, _, err := est.PlanCost(plans[0])
		if err != nil {
			t.Fatal(err)
		}
		if cv.TAll != 10*time.Millisecond {
			t.Errorf("%s: Ta = %v, want d:f(1)'s 10ms", q, cv.TAll)
		}
	}
}
