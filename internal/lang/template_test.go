package lang

import (
	"fmt"
	"slices"
	"testing"

	"hermes/internal/term"
)

// benchForms are the four query forms of the benchmark's cache workloads.
var benchForms = []string{
	"?- query3(82, 115, O, A).",
	"?- in(O, avis:frames_to_objects('rope', 82, 115)) & in(P, ingres:equal('cast', 'role', O)) & =(P.name, A).",
	"?- in(O, avis:objects_in_range('rope', 82, 115)).",
	"?- actors(A).",
}

func mustLex(t *testing.T, src string) Tokens {
	t.Helper()
	toks, err := LexQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return toks
}

func mustTemplate(t *testing.T, src string) *Template {
	t.Helper()
	tp, err := ParseTemplate(mustLex(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestTemplateLift: a query of the template's token shape gets the
// template's body with its own constants, sharing every literal and value
// its text does not change; any other text, or a constant that does not
// convert, is not lifted.
func TestTemplateLift(t *testing.T) {
	tp := mustTemplate(t, benchForms[1])
	same := mustLex(t, benchForms[1])
	body, ok := tp.Lift(same)
	if !ok || &body[0] != &tp.Query.Body[0] {
		t.Fatalf("the template's own text: ok %v, a body of its own", ok)
	}
	if n := testing.AllocsPerRun(100, func() { tp.Lift(same) }); n != 0 {
		t.Errorf("lifting the template's own text allocates %v times, want 0", n)
	}
	other := "?- in(O, avis:frames_to_objects('rope', 5, 115)) & in(P, ingres:equal('cast', 'role', O)) & =(P.name, A)."
	body, ok = tp.Lift(mustLex(t, other))
	want, err := ParseQuery(other)
	if !ok || err != nil || !sameBody(body, want.Body) {
		t.Fatalf("lift %s: ok %v, body %v, want %v (%v)", other, ok, body, want.Body, err)
	}
	if body[0] == tp.Query.Body[0] || body[1] != tp.Query.Body[1] || body[2] != tp.Query.Body[2] {
		t.Errorf("lift %s: only the first literal should be the query's own", other)
	}
	if got := tp.Query.Body[0].String(); got != "in(O, avis:frames_to_objects('rope', 82, 115))" {
		t.Errorf("lifting changed the template: %s", got)
	}
	for _, src := range []string{
		"?- in(O, avis:frames_to_objects('rope', 99999999999999999999, 115)) & in(P, ingres:equal('cast', 'role', O)) & =(P.name, A).",
		"?- in(O, avis:frames_to_objects(rope, 82, 115)) & in(P, ingres:equal('cast', 'role', O)) & =(P.name, A).",
		"?- in(O, avis:frames_to_objects('rope', 82, 11.5)) & in(P, ingres:equal('cast', 'role', O)) & =(P.name, A).",
		"?- in(X, avis:frames_to_objects('rope', 82, 115)) & in(P, ingres:equal('cast', 'role', X)) & =(P.name, A).",
		"?- in(O, avis:frames_to_objects('rope', 82, 115)) & in(P, ingres:equal('cast', 'role', O)) & =(P.name, A)",
	} {
		if _, ok := tp.Lift(mustLex(t, src)); ok {
			t.Errorf("lifted %s", src)
		}
	}
}

// FuzzPreparedMatchesParse: for any text, the lexer-keyed path — lex,
// lift into a template of the text's token shape, parse the tokens only
// when that fails — yields the body ParseQuery yields, with equal
// constants of equal kinds, and errs exactly when ParseQuery errs, with
// its message. The template is the text itself with every other string,
// integer and float given another value, so both a lifted and a kept
// constant are read.
func FuzzPreparedMatchesParse(f *testing.F) {
	for _, s := range lexerCorpus {
		f.Add(s)
	}
	for _, s := range benchForms {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		want, wantErr := ParseQuery(src)
		got, lifted, gotErr := prepared(src)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("%q: error %v, ParseQuery's %v", src, gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		if !lifted {
			t.Fatalf("%q parses but was not lifted into a template of its own shape", src)
		}
		if !sameBody(got, want.Body) {
			t.Fatalf("%q: lifted %v, parsed %v", src, got, want.Body)
		}
	})
}

// prepared runs the lexer-keyed path on src against a template of its
// token shape: lifted reports that the template took it.
func prepared(src string) (body []Literal, lifted bool, err error) {
	toks, err := LexQuery(src)
	if err != nil {
		return nil, false, err
	}
	if tp, err := ParseTemplate(Tokens{twin(toks.toks)}); err == nil {
		before := tp.Query.String()
		if body, ok := tp.Lift(toks); ok {
			if tp.Query.String() != before {
				return nil, true, fmt.Errorf("lifting changed the template from %s to %s", before, tp.Query)
			}
			return body, true, nil
		}
	}
	tp, err := ParseTemplate(toks)
	if err != nil {
		return nil, false, err
	}
	return tp.Query.Body, false, nil
}

// twin returns the tokens with every other string, integer and float
// given another text of its kind.
func twin(toks []token) []token {
	out := slices.Clone(toks)
	n := 0
	for i, tk := range out {
		if !lifted(tk.kind) {
			continue
		}
		if n++; n%2 == 0 {
			continue
		}
		switch tk.kind {
		case tokString:
			out[i].text = tk.text + "x"
		case tokInt:
			out[i].text = "7"
		case tokFloat:
			out[i].text = "2.5"
		}
	}
	return out
}

// sameBody reports whether two bodies are structurally equal: literals of
// one type reading alike, variables with one name and path, and constants
// of one kind that are term.Equal.
func sameBody(a, b []Literal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if fmt.Sprintf("%T", a[i]) != fmt.Sprintf("%T", b[i]) || a[i].String() != b[i].String() {
			return false
		}
		for j := 0; TermAt(a[i], j) != nil; j++ {
			x, y := TermAt(a[i], j), TermAt(b[i], j)
			if y == nil || x.IsConst() != y.IsConst() {
				return false
			}
			if x.IsConst() && (x.Const.Kind() != y.Const.Kind() || !term.Equal(x.Const, y.Const)) {
				return false
			}
			if !x.IsConst() && (x.Var != y.Var || !slices.Equal(x.Path, y.Path)) {
				return false
			}
		}
	}
	return true
}
