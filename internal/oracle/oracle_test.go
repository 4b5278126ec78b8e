package oracle_test

import (
	"errors"
	"go/build"
	"sort"
	"strings"
	"testing"

	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/oracle"
	"hermes/internal/term"
)

// source is the hand-checked domain every case below runs against.
func source() *domaintest.Domain {
	d := domaintest.New("d")
	fixed := func(vs ...term.Value) domaintest.Func {
		return domaintest.Func{Fn: func([]term.Value) ([]term.Value, error) { return vs, nil }}
	}
	s := func(v string) term.Value { return term.Str(v) }
	d.Define("a", fixed(term.Int(1), term.Int(2)))
	d.Define("b", fixed(term.Int(2), term.Int(3)))
	d.Define("dup", fixed(s("x"), s("x"), s("y")))
	d.Define("set", fixed(s("x"), s("y")))
	person := func(name, role string) term.Value {
		return term.NewRecord(term.Field{Name: "name", Val: s(name)}, term.Field{Name: "role", Val: s(role)})
	}
	d.Define("people", fixed(person("ann", "grip"), person("bob", "gaffer"), person("cy", "grip")))
	d.Define("next", domaintest.Func{Arity: 1, Fn: func(args []term.Value) ([]term.Value, error) {
		return []term.Value{args[0].(term.Int) + 1}, nil
	}})
	return d
}

// eval runs query over program against source and renders each row as
// its values joined by spaces, sorted.
func eval(t *testing.T, program, query string) ([]string, error) {
	t.Helper()
	prog, err := lang.ParseProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	q, err := lang.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := oracle.Eval(prog, q, source())
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String()
		}
		out[i] = strings.Join(parts, " ")
	}
	sort.Strings(out)
	return out, err
}

func TestEvalHandComputed(t *testing.T) {
	cases := []struct {
		name, program, query, want string
	}{
		{"union keeps the duplicate across rules",
			"u(X) :- in(X, d:a()).  u(X) :- in(X, d:b()).", "?- u(X).", "1|2|2|3"},
		{"a source's duplicate answers are kept", "", "?- in(X, d:dup()).", "'x'|'x'|'y'"},
		{"a membership test matches once",
			"", "?- in(X, d:dup()) & in(X, d:dup()).", "'x'|'x'|'y'"},
		{"binding equality, either side",
			"", "?- in(X, d:a()) & Y = X & 7 = Z.", "1 1 7|2 2 7"},
		{"a filter comparison", "", "?- in(X, d:b()) & X > 2.", "3"},
		{"a ground call argument from a binding",
			"", "?- in(X, d:a()) & in(Y, d:next(X)).", "1 2|2 3"},
		{"attribute paths bind and filter",
			"crew(N) :- in(P, d:people()) & =(P.name, N) & P.role = 'grip'.", "?- crew(N).", "'ann'|'cy'"},
		{"a bound head argument reaches the body",
			"succ(X, Y) :- in(Y, d:next(X)).", "?- in(X, d:b()) & succ(X, Y).", "2 3|3 4"},
		{"access_equivalent runs the first feasible rule",
			"access_equivalent('f', 1).  f(X) :- in(X, d:a()).  f(X) :- in(X, d:b()).", "?- f(X).", "1|2"},
		{"access_equivalent skips a rule its adornment cannot run",
			"access_equivalent('g', 2).  g(X, Y) :- in(Y, d:next(X)).  g(X, Y) :- in(X, d:a()) & Y = X.",
			"?- g(X, Y).", "1 1|2 2"},
		{"access_equivalent with the input bound takes the first rule",
			"access_equivalent('g', 2).  g(X, Y) :- in(Y, d:next(X)).  g(X, Y) :- in(X, d:a()) & Y = X.",
			"?- g(5, Y).", "6"},
		{"a literal waits for its inputs",
			"", "?- in(Y, d:next(X)) & in(X, d:a()).", "2 1|3 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := eval(t, c.program, c.query)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Join(got, "|") != c.want {
				t.Errorf("%s\n  got  %s\n  want %s", c.query, strings.Join(got, "|"), c.want)
			}
		})
	}
}

func TestEvalRefusals(t *testing.T) {
	walk := `walk(X, Y) :- in(Y, d:next(X)).
		walk(X, Y) :- in(Z, d:next(X)) & walk(Z, Y).`
	if _, err := eval(t, walk, "?- walk(0, Y)."); !errors.Is(err, oracle.ErrRecursive) {
		t.Errorf("recursive walk: err = %v, want ErrRecursive", err)
	}
	// A union can only run when every rule can: dropping one would lose
	// answers.
	union := "h(X, Y) :- in(Y, d:next(X)).  h(X, Y) :- in(X, d:a()) & Y = X."
	if _, err := eval(t, union, "?- h(X, Y)."); err == nil || errors.Is(err, oracle.ErrRecursive) {
		t.Errorf("union with an infeasible rule: err = %v, want an ordering error", err)
	}
}

// TestMembershipMakesBodyOrderMatter pins the caveat docs/LANGUAGE.md
// states: when a source returns a duplicate, a membership test prunes it,
// so which of two literals enumerates decides the multiplicity. A plan
// that reorders such a body is right under either reading, and the
// property test keeps duplicates away from membership tests.
func TestMembershipMakesBodyOrderMatter(t *testing.T) {
	dupFirst, err := eval(t, "", "?- in(X, d:dup()) & in(X, d:set()).")
	if err != nil {
		t.Fatal(err)
	}
	setFirst, err := eval(t, "", "?- in(X, d:set()) & in(X, d:dup()).")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(dupFirst, "|") != "'x'|'x'|'y'" || strings.Join(setFirst, "|") != "'x'|'y'" {
		t.Errorf("dup first %v, set first %v; want [x x y] and [x y]", dupFirst, setFirst)
	}
}

func TestSubAndEqualCountMultiplicity(t *testing.T) {
	row := func(vs ...int64) []term.Value {
		out := make([]term.Value, len(vs))
		for i, v := range vs {
			out[i] = term.Int(v)
		}
		return out
	}
	want := [][]term.Value{row(1, 2), row(1, 2), row(3, 4)}
	if !oracle.Equal([][]term.Value{row(3, 4), row(1, 2), row(1, 2)}, want) {
		t.Error("a reordering is not Equal")
	}
	if oracle.Equal([][]term.Value{row(1, 2), row(3, 4), row(3, 4)}, want) {
		t.Error("a doubled row and a dropped one are Equal")
	}
	if !oracle.Sub([][]term.Value{row(1, 2), row(3, 4)}, want) || oracle.Sub([][]term.Value{row(3, 4), row(3, 4)}, want) {
		t.Error("Sub does not count multiplicity")
	}
}

// TestImportBoundary keeps the oracle independent of what it checks: it
// imports the standard library, the language, values, the domain
// interface and the clock, and none of the layers under test.
func TestImportBoundary(t *testing.T) {
	pkg, err := build.ImportDir(".", 0)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"hermes/internal/lang": true, "hermes/internal/term": true,
		"hermes/internal/domain": true, "hermes/internal/vclock": true}
	forbidden := []string{"core", "engine", "rewrite", "estimate", "cim", "memo", "dcsm",
		"resilience", "admission", "remote", "netsim", "spool", "obs"}
	for _, imp := range pkg.Imports {
		for _, f := range forbidden {
			if imp == "hermes/internal/"+f {
				t.Errorf("the oracle imports %s, a layer it checks", imp)
			}
		}
		if strings.HasPrefix(imp, "hermes/") && !allowed[imp] {
			t.Errorf("the oracle imports %s, outside the language, values, domains and clock", imp)
		}
	}
}
