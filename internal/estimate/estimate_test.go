package estimate

import (
	"testing"
	"time"

	"hermes/internal/cim"
	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

const m1Source = `
	access_equivalent('p', 2).
	access_equivalent('q', 2).
	m(A, C) :- p(A, B), q(B, C).
	p(A, B) :- in(B, d1:p_bf(A)).
	p(A, B) :- in($x, d1:p_bb(A, B)).
	q(B, C) :- in($ans, d2:q_ff()), =($ans.1, B), =($ans.2, C).
	q(B, C) :- in(C, d2:q_bf(B)).
`

func obs(db *dcsm.DB, dom, fn string, args []term.Value, tfMs, taMs int, card float64) {
	db.Observe(domain.Measurement{
		Call: domain.Call{Domain: dom, Function: fn, Args: args},
		Cost: domain.CostVector{
			TFirst: time.Duration(tfMs) * time.Millisecond,
			TAll:   time.Duration(taMs) * time.Millisecond,
			Card:   card,
		},
		Complete: true,
	})
}

// loadStats loads statistics matching the paper's §7 example quantities:
//
//	Ta(d1:p_bf(a)) = 2100ms, Card = 2
//	Ta(d2:q_bf($b)) = 950ms
//	Ta(d2:q_ff())  = 3050ms, Card = 3
//	Ta(d1:p_bb(a,$b)) = 510ms
func loadStats(db *dcsm.DB) {
	obs(db, "d1", "p_bf", []term.Value{term.Str("a")}, 300, 2000, 2)
	obs(db, "d1", "p_bf", []term.Value{term.Str("a")}, 320, 2200, 2)
	obs(db, "d2", "q_bf", []term.Value{term.Str("b1")}, 200, 900, 2)
	obs(db, "d2", "q_bf", []term.Value{term.Str("b2")}, 220, 1000, 1)
	obs(db, "d2", "q_ff", nil, 500, 3000, 3)
	obs(db, "d2", "q_ff", nil, 520, 3100, 3)
	obs(db, "d1", "p_bb", []term.Value{term.Str("a"), term.Str("b1")}, 150, 500, 1)
	obs(db, "d1", "p_bb", []term.Value{term.Str("a"), term.Str("b2")}, 160, 520, 1)
}

func plansFor(t *testing.T, src, query string) []*rewrite.Plan {
	t.Helper()
	prog, err := lang.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	q, err := lang.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	rw := rewrite.New(prog, rewrite.Config{}, nil)
	plans, err := rw.Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	return plans
}

// findPlan returns the plan containing all the given substrings.
func findPlan(t *testing.T, plans []*rewrite.Plan, subs ...string) *rewrite.Plan {
	t.Helper()
	for _, p := range plans {
		s := p.String()
		ok := true
		for _, sub := range subs {
			if !containsStr(s, sub) {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
	t.Fatalf("no plan matches %v among %d plans", subs, len(plans))
	return nil
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestPaperSection7Formulas checks the paper's formulas (1) and (2)
// numerically.
//
// (P8):  Ta = Ta(p_bf(a)) + Card(p_bf(a)) · Ta(q_bf($b))
//
//	= 2100 + 2·950 = 4000 ms
//
// (P12): Ta = Ta(q_ff()) + Card(q_ff()) · Ta(p_bb(a,$b))
//
//	= 3050 + 3·510 = 4580 ms
func TestPaperSection7Formulas(t *testing.T) {
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	loadStats(db)
	est := New(db, nil)
	plans := plansFor(t, m1Source, "?- m('a', C).")

	p8 := findPlan(t, plans, "d1:p_bf(A)", "d2:q_bf(B)")
	cv8, d8, err := est.PlanCost(p8)
	if err != nil {
		t.Fatal(err)
	}
	if d8.Defaulted != 0 {
		t.Errorf("P8 used %d default costs", d8.Defaulted)
	}
	if cv8.TAll != 4000*time.Millisecond {
		t.Errorf("Ta(P8) = %v, want 4000ms", cv8.TAll)
	}
	// Tf(P8) = Tf(p_bf(a)) + Tf(q_bf($b)) = 310 + 210 = 520ms.
	if cv8.TFirst != 520*time.Millisecond {
		t.Errorf("Tf(P8) = %v, want 520ms", cv8.TFirst)
	}
	// Card(P8) = 2 · 1.5 = 3.
	if cv8.Card != 3 {
		t.Errorf("Card(P8) = %v, want 3", cv8.Card)
	}

	p12 := findPlan(t, plans, "d2:q_ff()", "d1:p_bb(A, B)")
	cv12, _, err := est.PlanCost(p12)
	if err != nil {
		t.Fatal(err)
	}
	if cv12.TAll != 4580*time.Millisecond {
		t.Errorf("Ta(P12) = %v, want 4580ms", cv12.TAll)
	}
	// The estimator must rank P8 over P12 for all-answers.
	best, bestCV, _, err := est.Best(plans, false)
	if err != nil {
		t.Fatal(err)
	}
	if bestCV.TAll > cv8.TAll {
		t.Errorf("best plan cost %v exceeds P8's %v:\n%s", bestCV.TAll, cv8.TAll, best)
	}
}

func TestMembershipCallCardClamped(t *testing.T) {
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	// p_enum('a') enumerates 7 answers, but when its output variable is
	// already bound the literal is a membership test contributing at most
	// one continuation per probe.
	obs(db, "d1", "p_enum", []term.Value{term.Str("a")}, 100, 500, 7)
	obs(db, "d2", "q_ff", nil, 500, 3000, 3)
	est := New(db, nil)
	plans := plansFor(t, `
		m(C) :- q(B, C), p(B).
		p(B) :- in(B, d1:p_enum('a')).
		q(B, C) :- in($ans, d2:q_ff()), =($ans.1, B), =($ans.2, C).
	`, "?- m(C).")
	p := findPlan(t, plans, "q(B, C) & p(B)")
	cv, _, err := est.PlanCost(p)
	if err != nil {
		t.Fatal(err)
	}
	// Card must be bounded by q_ff's 3, not multiplied by 7.
	if cv.Card > 3 {
		t.Errorf("Card = %v; membership call multiplicity not clamped", cv.Card)
	}
	// Ta = Ta(q_ff) + 3·Ta(p_enum) = 3000 + 3·500 = 4500ms.
	if cv.TAll != 4500*time.Millisecond {
		t.Errorf("Ta = %v, want 4500ms", cv.TAll)
	}
}

func TestDefaultCostCountsFallbacks(t *testing.T) {
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	est := New(db, nil)
	plans := plansFor(t, `v(X) :- in(X, d:f()).`, "?- v(X).")
	_, d, err := est.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if d.Defaulted != 1 {
		t.Errorf("defaulted = %d, want 1", d.Defaulted)
	}
}

func TestCIMAwareCostingExactHit(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 5 * time.Second,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Str("a"), term.Str("b")}, nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	ccfg := cim.DefaultConfig()
	mgr := cim.New(reg, ccfg)
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	obs(db, "d", "f", []term.Value{term.Int(1)}, 5000, 5000, 2)
	est := New(db, mgr)

	prog, _ := lang.ParseProgram(`v(X) :- in(X, d:f(1)).`)
	q, _ := lang.ParseQuery("?- v(X).")
	rw := rewrite.New(prog, rewrite.Config{CIMDomains: map[string]bool{"d": true}}, nil)
	plans, err := rw.Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	// Cold cache: CIM-routed estimate ≈ actual + lookup.
	cvCold, _, err := est.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if cvCold.TAll < 5*time.Second {
		t.Errorf("cold CIM estimate = %v, want ≥ 5s", cvCold.TAll)
	}
	// Warm the cache.
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	resp, err := mgr.CallThrough(ctx, domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(1)}})
	if err != nil {
		t.Fatal(err)
	}
	domain.Collect(resp.Stream)
	cvWarm, _, err := est.PlanCost(plans[0])
	if err != nil {
		t.Fatal(err)
	}
	if cvWarm.TAll >= time.Second {
		t.Errorf("warm CIM estimate = %v, want cache-serve cost", cvWarm.TAll)
	}
	if cvWarm.Card != 2 {
		t.Errorf("warm Card = %v, want cached cardinality 2", cvWarm.Card)
	}
}

func TestBestByFirstAnswer(t *testing.T) {
	db := dcsm.New(dcsm.DefaultConfig(), nil)
	// fastfirst: slow overall, quick first answer. fastall: the reverse.
	obs(db, "d", "fastfirst", nil, 10, 10000, 5)
	obs(db, "d", "fastall", nil, 3000, 3000, 5)
	est := New(db, nil)
	plans := plansFor(t, `
		access_equivalent('v', 1).
		v(X) :- in(X, d:fastfirst()).
		v(X) :- in(X, d:fastall()).
	`, "?- v(X).")
	bestAll, cvAll, _, err := est.Best(plans, false)
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(bestAll.String(), "fastall") {
		t.Errorf("all-answers mode picked %s (cost %v)", bestAll, cvAll)
	}
	bestFirst, cvFirst, _, err := est.Best(plans, true)
	if err != nil {
		t.Fatal(err)
	}
	if !containsStr(bestFirst.String(), "fastfirst") {
		t.Errorf("interactive mode picked %s (cost %v)", bestFirst, cvFirst)
	}
}

func TestEmptyPlanListError(t *testing.T) {
	est := New(dcsm.New(dcsm.DefaultConfig(), nil), nil)
	if _, _, _, err := est.Best(nil, false); err == nil {
		t.Error("Best(nil) should error")
	}
}
