package lang

import (
	"testing"
)

// FuzzParseProgram: the parser must never panic, and anything it accepts
// must render to text it accepts again.
func FuzzParseProgram(f *testing.F) {
	seeds := []string{
		"p(X).",
		"m(A, C) :- p(A, B), q(B, C).",
		"p(A, B) :- in($ans, d1:p_ff()), =($ans.1, A), =($ans.2, B).",
		"Dist > 142 => spatial:range('map1', X, Y, Dist) = spatial:range('points', X, Y, 142).",
		"V1 <= V2 => relation:select_lt(T, A, V2) >= relation:select_lt(T, A, V1).",
		"q(142).",
		"v(Y) :- X = 'k', in(Y, d:f(X)).",
		"p('unterminated",
		"p(A :- q(A).",
		"% comment only",
		"?-",
		"=>",
		"p(1.5e3, -2, true, false, 'str', X.a.b).",
		"\x00\x01\x02",
		"p(((((",
		"a :- b & c & d & e.",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseProgram(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		rendered := prog.String()
		prog2, err := ParseProgram(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected its own rendering %q: %v", src, rendered, err)
		}
		if prog2.String() != rendered {
			t.Fatalf("rendering not a fixpoint:\n%q\n%q", rendered, prog2.String())
		}
	})
}

// FuzzParseQuery mirrors FuzzParseProgram for queries, and a query's
// rendering must parse back to its body: the same literals, constants of
// the same kinds and values, and the same variables and paths.
func FuzzParseQuery(f *testing.F) {
	for _, s := range []string{
		"?- m('a', C).",
		"?- in(O, avis:frames_to_objects('rope', 4, 47)) & O != 'chest'.",
		"m(X)",
		"?- .",
		"?- X.",
		"?- X = 2.0.",
		"?- in(Y, d:f(1e3, X)) & X >= -0.0.",
		"p(1.5e3, -2, true, false, 'str', X.a.b).",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		rendered := q.String()
		q2, err := ParseQuery(rendered)
		if err != nil {
			t.Fatalf("accepted %q but rejected rendering %q: %v", src, rendered, err)
		}
		if !sameBody(q.Body, q2.Body) {
			t.Fatalf("%q renders as %q, which parses to another body", src, rendered)
		}
	})
}
