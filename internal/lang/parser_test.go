package lang

import (
	"strings"
	"testing"

	"hermes/internal/term"
)

func mustProgram(t *testing.T, src string) *Program {
	t.Helper()
	p, err := ParseProgram(src)
	if err != nil {
		t.Fatalf("ParseProgram(%q): %v", src, err)
	}
	return p
}

func TestParseFact(t *testing.T) {
	p := mustProgram(t, "access_equivalent('p', 2).")
	if len(p.Rules) != 1 {
		t.Fatalf("rules = %d, want 1", len(p.Rules))
	}
	r := p.Rules[0]
	if r.Head.Pred != "access_equivalent" || len(r.Body) != 0 {
		t.Errorf("bad fact: %s", r)
	}
	if !term.Equal(r.Head.Args[0].Const, term.Str("p")) {
		t.Errorf("arg0 = %v", r.Head.Args[0])
	}
	if !term.Equal(r.Head.Args[1].Const, term.Int(2)) {
		t.Errorf("arg1 = %v", r.Head.Args[1])
	}
}

func TestParsePaperMediatorM1(t *testing.T) {
	src := `
		% The paper's (M1), with variables capitalized.
		m(A, C) :- p(A, B), q(B, C).
		p(A, B) :- in($ans, d1:p_ff()), =($ans.1, A), =($ans.2, B).
		p(A, B) :- in(A, d1:p_fb(B)).
		q(B, C) :- in($ans, d2:q_ff()), =($ans.1, B), =($ans.2, C).
		q(B, C) :- in(C, d2:q_bf(B)).
	`
	p := mustProgram(t, src)
	if len(p.Rules) != 5 {
		t.Fatalf("rules = %d, want 5", len(p.Rules))
	}
	// Rule 2: body shape.
	r := p.Rules[1]
	if len(r.Body) != 3 {
		t.Fatalf("p rule body = %d literals, want 3", len(r.Body))
	}
	in, ok := r.Body[0].(*InCall)
	if !ok {
		t.Fatalf("first literal is %T, want *InCall", r.Body[0])
	}
	if in.Call.Domain != "d1" || in.Call.Function != "p_ff" || len(in.Call.Args) != 0 {
		t.Errorf("call = %s", in.Call.String())
	}
	if in.Out.Var != "$ans" {
		t.Errorf("out var = %q", in.Out.Var)
	}
	cmp, ok := r.Body[1].(*Comparison)
	if !ok {
		t.Fatalf("second literal is %T", r.Body[1])
	}
	if cmp.Op != term.OpEQ || cmp.Left.Var != "$ans" || len(cmp.Left.Path) != 1 || cmp.Left.Path[0] != "1" {
		t.Errorf("comparison = %s", cmp)
	}
}

func TestParseRouteToSupplies(t *testing.T) {
	src := `
		routetosupplies(From, Sup, To, R) :-
		    in(Tuple, ingres:select_eq('inventory', 'item', Sup)) &
		    Tuple.loc = To &
		    in(R, terraindb:findrte(From, To)).
	`
	p := mustProgram(t, src)
	r := p.Rules[0]
	if r.Head.Pred != "routetosupplies" || len(r.Head.Args) != 4 {
		t.Fatalf("head = %s", r.Head.String())
	}
	if len(r.Body) != 3 {
		t.Fatalf("body = %d literals", len(r.Body))
	}
	cmp := r.Body[1].(*Comparison)
	if cmp.Left.Var != "Tuple" || cmp.Left.Path[0] != "loc" || cmp.Right.Var != "To" {
		t.Errorf("comparison = %s", cmp)
	}
}

func TestParseInvariantEquality(t *testing.T) {
	inv, err := ParseInvariant(
		"Dist > 142 => spatial:range('map1', X, Y, Dist) = spatial:range('points', X, Y, 142).")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Rel != RelEqual {
		t.Errorf("rel = %v, want =", inv.Rel)
	}
	if len(inv.Cond) != 1 || inv.Cond[0].Op != term.OpGT {
		t.Errorf("cond = %v", inv.Cond)
	}
	if inv.Left.Domain != "spatial" || inv.Left.Function != "range" || len(inv.Left.Args) != 4 {
		t.Errorf("left = %s", inv.Left.String())
	}
	if !term.Equal(inv.Right.Args[3].Const, term.Int(142)) {
		t.Errorf("right arg4 = %v", inv.Right.Args[3])
	}
}

func TestParseInvariantSuperset(t *testing.T) {
	inv, err := ParseInvariant(
		"V1 <= V2 => relation:select_lt(T, A, V2) >= relation:select_lt(T, A, V1).")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Rel != RelSuperset {
		t.Errorf("rel = %v, want >=", inv.Rel)
	}
	if inv.Cond[0].Left.Var != "V1" || inv.Cond[0].Right.Var != "V2" {
		t.Errorf("cond = %v", inv.Cond[0].String())
	}
}

func TestParseInvariantTrueCondition(t *testing.T) {
	inv, err := ParseInvariant("true => d:f(X) = d:g(X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Cond) != 0 {
		t.Errorf("cond = %v, want empty", inv.Cond)
	}
}

func TestParseProgramWithInvariants(t *testing.T) {
	src := `
		p(A) :- in(A, d:f()).
		X > 1 => d:g(X) = d:g(1).
	`
	p := mustProgram(t, src)
	if len(p.Rules) != 1 || len(p.Invariants) != 1 {
		t.Fatalf("rules=%d invariants=%d", len(p.Rules), len(p.Invariants))
	}
}

func TestParseQueryForms(t *testing.T) {
	q, err := ParseQuery("?- m('a', C).")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Body) != 1 {
		t.Fatalf("body = %d", len(q.Body))
	}
	a := q.Body[0].(*Atom)
	if a.Pred != "m" || !term.Equal(a.Args[0].Const, term.Str("a")) || a.Args[1].Var != "C" {
		t.Errorf("query atom = %s", a)
	}
	// Without ?- and trailing dot.
	q2, err := ParseQuery("m('a', C)")
	if err != nil {
		t.Fatal(err)
	}
	if q2.Body[0].(*Atom).Pred != "m" {
		t.Error("bare query parse failed")
	}
	// Conjunctive query with a domain call.
	q3, err := ParseQuery("?- in(X, avis:objects('rope')) & X != 'chest'.")
	if err != nil {
		t.Fatal(err)
	}
	if len(q3.Body) != 2 {
		t.Fatalf("conjunctive body = %d", len(q3.Body))
	}
}

// TestParseQueryAllocsPer bounds what parsing the benchmark's hot query
// forms allocates: the lexer takes its tokens out of the source string,
// so what is left is one token slice and the syntax tree.
func TestParseQueryAllocsPer(t *testing.T) {
	for _, tc := range []struct {
		src string
		max float64 // measured + 20 %
	}{
		{"?- query3(4, 47, O, A).", 10},
		{"?- in(O, avis:frames_to_objects('rope', 4, 47)) & in(P, ingres:equal('cast', 'role', O)) & =(P.name, A).", 28},
	} {
		if n := testing.AllocsPerRun(100, func() { ParseQuery(tc.src) }); n > tc.max {
			t.Errorf("ParseQuery(%q) allocates %v times, want at most %v", tc.src, n, tc.max)
		}
		if n := testing.AllocsPerRun(100, func() { lexAll(tc.src) }); n != 1 {
			t.Errorf("lexAll(%q) allocates %v times, want 1 (the token slice)", tc.src, n)
		}
	}
	// Long source reserves no more than the cap up front: a megabyte of
	// blanks around one short statement.
	if toks, err := lexAll(strings.Repeat(" ", 1<<20) + "q."); err != nil || cap(toks) > 64 {
		t.Errorf("lexAll over 1 MiB of blanks: cap %d, err %v; want cap at most 64", cap(toks), err)
	}
}

func TestParseSourceMixed(t *testing.T) {
	prog, queries, err := ParseSource(`
		p(A) :- in(A, d:f()).
		?- p(X).
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Rules) != 1 || len(queries) != 1 {
		t.Errorf("rules=%d queries=%d", len(prog.Rules), len(queries))
	}
}

func TestParseNumericLiterals(t *testing.T) {
	q, err := ParseQuery("?- in(X, avis:frames_to_objects('rope', 4, 47)) & X.w > 2.5 & Y = -3.")
	if err != nil {
		t.Fatal(err)
	}
	in := q.Body[0].(*InCall)
	if !term.Equal(in.Call.Args[1].Const, term.Int(4)) {
		t.Errorf("arg = %v", in.Call.Args[1])
	}
	gt := q.Body[1].(*Comparison)
	if !term.Equal(gt.Right.Const, term.Float(2.5)) {
		t.Errorf("float literal = %v", gt.Right)
	}
	eq := q.Body[2].(*Comparison)
	if !term.Equal(eq.Right.Const, term.Int(-3)) {
		t.Errorf("negative literal = %v", eq.Right)
	}
}

func TestParseStatementDotVsPathDot(t *testing.T) {
	// "q(142)." — the dot ends the statement, 142 stays an int.
	p := mustProgram(t, "q(142).")
	if !term.Equal(p.Rules[0].Head.Args[0].Const, term.Int(142)) {
		t.Errorf("arg = %v", p.Rules[0].Head.Args[0])
	}
	// "P.name" — the dot is an attribute path.
	q, err := ParseQuery("?- in(P, rel:all('cast')) & P.name = Actor.")
	if err != nil {
		t.Fatal(err)
	}
	cmp := q.Body[1].(*Comparison)
	if cmp.Left.Var != "P" || cmp.Left.Path[0] != "name" {
		t.Errorf("path term = %s", cmp.Left)
	}
}

func TestParseComments(t *testing.T) {
	p := mustProgram(t, `
		% a comment
		# another comment
		// and a third
		p(A) :- in(A, d:f()). % trailing
	`)
	if len(p.Rules) != 1 {
		t.Errorf("rules = %d", len(p.Rules))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"p(A :- q(A).",             // unbalanced paren
		"p(A) :- .",                // empty body
		"p(A).extra",               // trailing garbage handled as new stmt -> parse error
		"X > => d:f(X) = d:f(1).",  // malformed condition
		"true => d:f(X) < d:f(1).", // bad invariant relation
		"p('unterminated.",         // unterminated string
		"?- p(X)",                  // query inside ParseProgram
	}
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) should fail", src)
		}
	}
}

func TestRoundTripStrings(t *testing.T) {
	src := `m(A, C) :- p(A, B) & q(B, C).`
	p := mustProgram(t, src)
	s := p.Rules[0].String()
	if !strings.Contains(s, "m(A, C) :- p(A, B) & q(B, C).") {
		t.Errorf("rule string = %q", s)
	}
	// Reparse the rendering.
	if _, err := ParseProgram(s); err != nil {
		t.Errorf("reparse of %q: %v", s, err)
	}
	inv, err := ParseInvariant("V1 <= V2 => relation:select_lt(T, A, V2) >= relation:select_lt(T, A, V1).")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParseInvariant(inv.String()); err != nil {
		t.Errorf("reparse invariant %q: %v", inv.String(), err)
	}
}

func TestProgramRulesFor(t *testing.T) {
	p := mustProgram(t, `
		p(A) :- in(A, d:f()).
		p(A) :- in(A, d:g()).
		q(A) :- p(A).
	`)
	if n := len(p.RulesFor("p")); n != 2 {
		t.Errorf("RulesFor(p) = %d", n)
	}
	if n := len(p.RulesFor("zzz")); n != 0 {
		t.Errorf("RulesFor(zzz) = %d", n)
	}
}

func TestPrefixComparisonForms(t *testing.T) {
	q, err := ParseQuery("?- in(P, rel:all('cast')) & ==(P.role, Object) & <=(P.age, 50).")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Body) != 3 {
		t.Fatalf("body = %d", len(q.Body))
	}
	c1 := q.Body[1].(*Comparison)
	if c1.Op != term.OpEQ {
		t.Errorf("op1 = %v", c1.Op)
	}
	c2 := q.Body[2].(*Comparison)
	if c2.Op != term.OpLE {
		t.Errorf("op2 = %v", c2.Op)
	}
}
