package rewrite

import (
	"strings"
	"testing"

	"hermes/internal/lang"
	"hermes/internal/term"
)

// m1Source is the paper's (M1) with the access-function variants declared
// equivalent.
const m1Source = `
	access_equivalent('p', 2).
	access_equivalent('q', 2).
	m(A, C) :- p(A, B), q(B, C).
	p(A, B) :- in($ans, d1:p_ff()), =($ans.1, A), =($ans.2, B).
	p(A, B) :- in(B, d1:p_bf(A)).
	p(A, B) :- in($x, d1:p_bb(A, B)).
	q(B, C) :- in($ans, d2:q_ff()), =($ans.1, B), =($ans.2, C).
	q(B, C) :- in(C, d2:q_bf(B)).
`

func mustParse(t *testing.T, src string) *lang.Program {
	t.Helper()
	p, err := lang.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustQuery(t *testing.T, src string) *lang.Query {
	t.Helper()
	q, err := lang.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestPaperSection5Rewritings(t *testing.T) {
	prog := mustParse(t, m1Source)
	rw := New(prog, Config{}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- m('a', C)."))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("plans = %d, want several", len(plans))
	}
	// (P8): p first with adornment bf via d1:p_bf, then q^bf via d2:q_bf.
	// (P12): q first with adornment ff via d2:q_ff, then p^bb via d1:p_bb.
	var sawP8, sawP12 bool
	for _, p := range plans {
		s := p.String()
		if strings.Contains(s, "p^bf") && strings.Contains(s, "d1:p_bf(A)") &&
			strings.Contains(s, "q^bf") && strings.Contains(s, "d2:q_bf(B)") {
			sawP8 = true
		}
		if strings.Contains(s, "q^ff") && strings.Contains(s, "d2:q_ff()") &&
			strings.Contains(s, "p^bb") && strings.Contains(s, "d1:p_bb(A, B)") {
			sawP12 = true
		}
	}
	if !sawP8 {
		t.Error("plan space misses the (P8) shape: p^bf via d1:p_bf then q^bf")
	}
	if !sawP12 {
		t.Error("plan space misses the (P12) shape: q^ff then p^bb membership")
	}
}

func TestAccessEquivalentPicksOneRule(t *testing.T) {
	prog := mustParse(t, m1Source)
	rw := New(prog, Config{}, nil)
	if !rw.IsAccessEquivalent("p", 2) || !rw.IsAccessEquivalent("q", 2) {
		t.Fatal("access_equivalent facts not recognized")
	}
	if rw.IsAccessEquivalent("m", 2) {
		t.Error("m should not be access-equivalent")
	}
	plans, err := rw.Plans(mustQuery(t, "?- m('a', C)."))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		for key, rules := range p.Rules {
			if (key.Pred == "p" || key.Pred == "q") && len(rules) != 1 {
				t.Errorf("plan %d: access-equivalent %s has %d rules, want 1", i, key, len(rules))
			}
		}
	}
}

func TestUnionPredicateKeepsAllRules(t *testing.T) {
	prog := mustParse(t, `
		s(A) :- in(A, d1:f()).
		s(A) :- in(A, d2:g()).
	`)
	rw := New(prog, Config{}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- s(X)."))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		rules := p.Rules[PredKey{Pred: "s", Adorn: "f"}]
		if len(rules) != 2 {
			t.Errorf("union predicate has %d rules in plan, want 2", len(rules))
		}
	}
}

func TestUnionInfeasibleRuleBlocksAdornment(t *testing.T) {
	// Second rule needs A bound; for adornment f the union cannot be
	// complete, so no plan may exist.
	prog := mustParse(t, `
		s(A) :- in(A, d1:f()).
		s(A) :- in($x, d1:g(A)).
	`)
	rw := New(prog, Config{}, nil)
	if _, err := rw.Plans(mustQuery(t, "?- s(X).")); err == nil {
		t.Error("expected no feasible plan when a union rule is infeasible")
	}
	// With A bound it works.
	if _, err := rw.Plans(mustQuery(t, "?- s('a').")); err != nil {
		t.Errorf("bound query should be plannable: %v", err)
	}
}

func TestOrderingRespectsGroundness(t *testing.T) {
	prog := mustParse(t, `
		r(X, Y) :- in(X, d:gen()), in(Y, d:dep(X)).
	`)
	rw := New(prog, Config{}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- r(A, B)."))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		rules := p.Rules[PredKey{Pred: "r", Adorn: "ff"}]
		for _, pr := range rules {
			body := pr.BodyInOrder()
			first := body[0].(*lang.InCall)
			if first.Call.Function != "gen" {
				t.Errorf("dep(X) scheduled before X is bound:\n%s", pr)
			}
		}
	}
}

func TestNoPermissibleOrderingError(t *testing.T) {
	prog := mustParse(t, `
		r(Y) :- in(Y, d:dep(X)).
	`)
	rw := New(prog, Config{}, nil)
	if _, err := rw.Plans(mustQuery(t, "?- r(B).")); err == nil {
		t.Error("unboundable call argument should make planning fail")
	}
}

func TestRecursiveProgramPlansSelfReference(t *testing.T) {
	// Recursion through the same adornment is representable: the plan's
	// walk^bf rules reference walk^bf again, and the engine bounds the
	// recursion depth at run time. The enumerator must terminate and emit
	// such plans rather than looping.
	prog := mustParse(t, `
		walk(X, Y) :- in(Y, d:edge(X)).
		walk(X, Y) :- walk(X, Z), in(Y, d:edge(Z)).
	`)
	rw := New(prog, Config{}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- walk('a', Y)."))
	if err != nil {
		t.Fatalf("recursive planning: %v", err)
	}
	found := false
	for _, p := range plans {
		if rules, ok := p.Rules[PredKey{Pred: "walk", Adorn: "bf"}]; ok && len(rules) == 2 {
			found = true
		}
	}
	if !found {
		t.Error("no plan contains both walk rules for walk^bf")
	}
}

type fakePusher map[string]bool

func (f fakePusher) HasFunction(dom, fn string, arity int) (bool, error) {
	return f[dom+":"+fn], nil
}

func TestPushSelections(t *testing.T) {
	prog := mustParse(t, `
		actor(A, O) :- in(P, rel:all('cast')), =(P.name, A), =(P.role, O).
	`)
	rw := New(prog, Config{}, fakePusher{"rel:equal": true})
	plans, err := rw.Plans(mustQuery(t, "?- actor(A, 'brandon shaw')."))
	if err != nil {
		t.Fatal(err)
	}
	// With O bound to a constant at plan level... the constant lives in the
	// query, not the rule, so the rule body keeps P.role = O. Direct query
	// over the scan, however, must push.
	_ = plans
	q := mustQuery(t, "?- in(P, rel:all('cast')) & P.role = 'brandon shaw' & P.name = A.")
	plans, err = rw.Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range plans {
		s := p.String()
		if strings.Contains(s, "rel:equal('cast', 'role', 'brandon shaw')") &&
			!strings.Contains(s, "P.role") {
			found = true
		}
	}
	if !found {
		t.Errorf("selection not pushed; plans:\n%s", plans[0])
	}
}

func TestPushSelectionsRequiresSourceSupport(t *testing.T) {
	rw := New(&lang.Program{}, Config{}, fakePusher{})
	q := mustQuery(t, "?- in(P, rel:all('cast')) & P.role = 'x'.")
	plans, err := rw.Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if strings.Contains(p.String(), "rel:equal") {
			t.Error("pushed selection into a source without equal/3")
		}
	}
}

func TestCIMRoutingByDomain(t *testing.T) {
	prog := mustParse(t, `
		v(X) :- in(X, avis:objects('rope')).
		w(X) :- in(X, local:f()).
	`)
	rw := New(prog, Config{CIMDomains: map[string]bool{"avis": true}}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- v(X), w(Y)."))
	if err != nil {
		t.Fatal(err)
	}
	p := plans[0]
	s := p.String()
	if !strings.Contains(s, "CIM[in(X, avis:objects('rope'))]") {
		t.Errorf("avis call not CIM-routed:\n%s", s)
	}
	if strings.Contains(s, "CIM[in(X, local:f())]") {
		t.Errorf("local call wrongly CIM-routed:\n%s", s)
	}
}

func TestMaxPlansCap(t *testing.T) {
	// Two query orderings times 24 orderings of r times 24 of s: 1152
	// candidate plans, capped.
	prog := mustParse(t, `
		r(A, B, C, D) :- in(A, d:f1()), in(B, d:f2()), in(C, d:f3()), in(D, d:f4()).
		s(A, B, C, D) :- in(A, d:f1()), in(B, d:f2()), in(C, d:f3()), in(D, d:f4()).
	`)
	rw := New(prog, Config{}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- r(A, B, C, D), s(E, F, G, H)."))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != maxPlans {
		t.Errorf("plans = %d, want the plan cap %d", len(plans), maxPlans)
	}
}

// TestPaperExample62DroppableDims reproduces §6.2.2: with m exported and
// p, q hidden, the B attribute of d1:p_bb / d2:q_bf can never be a
// planning-time constant and is droppable; A of d1:p_bf can be (the query
// may bind it to a constant through m's first argument).
func TestPaperExample62DroppableDims(t *testing.T) {
	prog := mustParse(t, m1Source)
	das := DroppableDims(prog, []string{"m"})
	byKey := map[string]DimAnalysis{}
	for _, da := range das {
		byKey[da.Key.String()] = da
	}
	pbf, ok := byKey["d1:p_bf/1"]
	if !ok {
		t.Fatalf("no analysis for d1:p_bf/1: %v", das)
	}
	if len(pbf.Keep) != 1 || pbf.Keep[0] != 0 {
		t.Errorf("p_bf keep = %v, want [0] (A reachable from exported m)", pbf.Keep)
	}
	pbb := byKey["d1:p_bb/2"]
	if len(pbb.Keep) != 1 || pbb.Keep[0] != 0 || len(pbb.Drop) != 1 || pbb.Drop[0] != 1 {
		t.Errorf("p_bb keep=%v drop=%v, want keep [0] drop [1] (B hidden)", pbb.Keep, pbb.Drop)
	}
	qbf := byKey["d2:q_bf/1"]
	if len(qbf.Drop) != 1 || qbf.Drop[0] != 0 {
		t.Errorf("q_bf drop = %v, want [0] (B never constant)", qbf.Drop)
	}
	qff := byKey["d2:q_ff/0"]
	if len(qff.Keep) != 0 || len(qff.Drop) != 0 {
		t.Errorf("q_ff analysis = %+v, want empty", qff)
	}
}

func TestDroppableDimsExportedHiddenContrast(t *testing.T) {
	prog := mustParse(t, m1Source)
	// If p itself is exported, its arguments may be query constants: B of
	// p_bb becomes keepable.
	das := DroppableDims(prog, []string{"m", "p", "q"})
	for _, da := range das {
		if da.Key.String() == "d1:p_bb/2" {
			if len(da.Keep) != 2 {
				t.Errorf("exported p: p_bb keep = %v, want both positions", da.Keep)
			}
		}
	}
}

func TestAdornmentString(t *testing.T) {
	a := &lang.Atom{Pred: "p", Args: []term.Term{term.C(term.Str("x")), term.V("Y")}}
	ad := AtomAdornment(a, map[string]bool{})
	if ad != "bf" {
		t.Errorf("adornment = %q, want bf", ad)
	}
	key := PredKey{Pred: "p", Adorn: ad}
	if key.String() != "p^bf" {
		t.Errorf("key = %q", key.String())
	}
}

func TestPlanStringRendering(t *testing.T) {
	prog := mustParse(t, m1Source)
	rw := New(prog, Config{CIMDomains: map[string]bool{"d1": true, "d2": true}}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- m('a', C)."))
	if err != nil {
		t.Fatal(err)
	}
	s := plans[0].String()
	if !strings.Contains(s, "?- m('a', C)") {
		t.Errorf("plan rendering missing query: %s", s)
	}
	if !strings.Contains(s, "CIM[") {
		t.Errorf("plan rendering missing CIM routing markers: %s", s)
	}
}

// TestQueryLineIsFirstLineOfString runs every plan of the corpus above —
// access-equivalent and union predicates, in() literals in the query
// itself, routed, unrouted and enumerated — through both renderings: the
// plan-choice tag is AppendQueryLine, and must read as String's first line
// does, and as the literals' own String forms joined.
func TestQueryLineIsFirstLineOfString(t *testing.T) {
	const routed = `
		v(X) :- in(X, avis:objects('rope')).
		w(X) :- in(X, local:f()).
	`
	const union = `
		s(A) :- in(A, d1:f()).
		s(A) :- in(A, d2:g()).
	`
	cim := map[string]bool{"d1": true, "d2": true, "avis": true}
	for _, tc := range []struct {
		src, query string
		cfg        Config
	}{
		{m1Source, "?- m('a', C).", Config{}},
		{m1Source, "?- m('a', C).", Config{CIMDomains: cim}},
		{m1Source, "?- m(A, C), A != 'z'.", Config{}},
		{union, "?- s(X).", Config{}},
		{union, "?- s(X), in(Y, d2:g()).", Config{CIMDomains: cim}},
		{routed, "?- v(X), w(Y).", Config{CIMDomains: cim}},
		{routed, "?- in(X, avis:objects('rope')), in(Y, local:f()).", Config{CIMDomains: cim}},
	} {
		plans, err := New(mustParse(t, tc.src), tc.cfg, nil).Plans(mustQuery(t, tc.query))
		if err != nil {
			t.Fatalf("%s: %v", tc.query, err)
		}
		for _, p := range plans {
			full, line := p.String(), string(p.AppendQueryLine(nil))
			if first := full[:strings.IndexByte(full, '\n')]; line != first {
				t.Errorf("%s: AppendQueryLine = %q, String starts %q", tc.query, line, first)
			}
			// The literals' String forms, joined as the line once was.
			parts := make([]string, len(p.Query.Order))
			for i, bi := range p.Query.Order {
				parts[i] = p.Query.Rule.Body[bi].String()
				if _, isIn := p.Query.Rule.Body[bi].(*lang.InCall); isIn && p.Query.Routes[bi] == RouteCIM {
					parts[i] = "CIM[" + parts[i] + "]"
				}
			}
			if want := "?- " + strings.Join(parts, " & ") + "."; line != want {
				t.Errorf("%s: AppendQueryLine = %q, its literals read %q", tc.query, line, want)
			}
		}
	}
}
