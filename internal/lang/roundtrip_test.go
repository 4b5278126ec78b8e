package lang

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hermes/internal/term"
)

// genTerm produces a random term.
func genTerm(rng *rand.Rand) term.Term {
	switch rng.Intn(5) {
	case 0:
		return term.C(term.Str(fmt.Sprintf("c%d", rng.Intn(10))))
	case 1:
		return term.C(term.Int(int64(rng.Intn(200) - 100)))
	case 2:
		return term.C(term.Float(float64(rng.Intn(100)) + 0.5))
	case 3:
		return term.V(fmt.Sprintf("V%d", rng.Intn(6)))
	default:
		return term.V(fmt.Sprintf("R%d", rng.Intn(3)), fmt.Sprintf("attr%d", rng.Intn(3)))
	}
}

func genCall(rng *rand.Rand) CallTemplate {
	n := rng.Intn(4)
	ct := CallTemplate{
		Domain:   fmt.Sprintf("dom%d", rng.Intn(3)),
		Function: fmt.Sprintf("fn%d", rng.Intn(4)),
	}
	for i := 0; i < n; i++ {
		ct.Args = append(ct.Args, genTerm(rng))
	}
	return ct
}

func genLiteral(rng *rand.Rand) Literal {
	switch rng.Intn(3) {
	case 0:
		a := &Atom{Pred: fmt.Sprintf("p%d", rng.Intn(4))}
		for i := rng.Intn(4); i > 0; i-- {
			a.Args = append(a.Args, genTerm(rng))
		}
		return a
	case 1:
		out := term.V(fmt.Sprintf("V%d", rng.Intn(6)))
		return &InCall{Out: out, Call: genCall(rng)}
	default:
		ops := []term.RelOp{term.OpEQ, term.OpNE, term.OpLT, term.OpLE, term.OpGT, term.OpGE}
		return &Comparison{Op: ops[rng.Intn(len(ops))], Left: genTerm(rng), Right: genTerm(rng)}
	}
}

func genRule(rng *rand.Rand) *Rule {
	head := Atom{Pred: fmt.Sprintf("h%d", rng.Intn(4))}
	for i := rng.Intn(4); i > 0; i-- {
		head.Args = append(head.Args, genTerm(rng))
	}
	r := &Rule{Head: head}
	for i := 1 + rng.Intn(4); i > 0; i-- {
		r.Body = append(r.Body, genLiteral(rng))
	}
	return r
}

// TestRuleRoundTripProperty: the String rendering of any generated rule
// reparses to a rule with the identical rendering. This pins the printer
// and parser to each other over a large random corpus.
func TestRuleRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		r := genRule(rng)
		src := r.String()
		prog, err := ParseProgram(src)
		if err != nil {
			t.Fatalf("case %d: reparse %q: %v", i, src, err)
		}
		if len(prog.Rules) != 1 {
			t.Fatalf("case %d: %q parsed to %d rules", i, src, len(prog.Rules))
		}
		if got := prog.Rules[0].String(); got != src {
			t.Fatalf("case %d: round trip changed rendering:\n  %q\n  %q", i, src, got)
		}
	}
}

// TestInvariantRoundTripProperty: same for invariants over random calls
// and conditions whose variables are drawn from the calls.
func TestInvariantRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		inv := &Invariant{Left: genCall(rng), Right: genCall(rng)}
		if rng.Intn(2) == 0 {
			inv.Rel = RelSuperset
		}
		vars := append(inv.Left.Vars(nil), inv.Right.Vars(nil)...)
		for k := rng.Intn(3); k > 0 && len(vars) > 0; k-- {
			ops := []term.RelOp{term.OpLT, term.OpLE, term.OpGT, term.OpGE, term.OpEQ, term.OpNE}
			inv.Cond = append(inv.Cond, Comparison{
				Op:    ops[rng.Intn(len(ops))],
				Left:  term.V(vars[rng.Intn(len(vars))]),
				Right: term.C(term.Int(int64(rng.Intn(100)))),
			})
		}
		src := inv.String()
		got, err := ParseInvariant(src)
		if err != nil {
			t.Fatalf("case %d: reparse %q: %v", i, src, err)
		}
		if got.String() != src {
			t.Fatalf("case %d: round trip changed rendering:\n  %q\n  %q", i, src, got.String())
		}
	}
}

// TestStrConstantRoundTrip: a string constant holding a quote, a
// backslash or a newline renders as one line that parses back to the same
// constant.
func TestStrConstantRoundTrip(t *testing.T) {
	for _, v := range []term.Str{"it's", `back\slash`, "a\nb", "tab\there"} {
		q := &Query{Body: []Literal{&Comparison{Op: term.OpEQ, Left: term.V("X"), Right: term.C(v)}}}
		src := q.String()
		if strings.ContainsAny(src, "\n\t") {
			t.Errorf("%q renders over more than one line: %q", string(v), src)
		}
		got, err := ParseQuery(src)
		if err != nil {
			t.Errorf("%q: reparse %q: %v", string(v), src, err)
			continue
		}
		if c := got.Body[0].(*Comparison).Right.Const; c != v {
			t.Errorf("%q: %q parses back to %#v", string(v), src, c)
		}
	}
}

// TestQueryRoundTripProperty: queries round-trip too.
func TestQueryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		q := &Query{}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			q.Body = append(q.Body, genLiteral(rng))
		}
		src := q.String()
		got, err := ParseQuery(src)
		if err != nil {
			t.Fatalf("case %d: reparse %q: %v", i, src, err)
		}
		if got.String() != src {
			t.Fatalf("case %d: %q -> %q", i, src, got.String())
		}
	}
}
