package rewrite

import (
	"strings"
	"testing"

	"hermes/internal/lang"
)

func TestMaxOrderingsCap(t *testing.T) {
	// Six independent calls: 720 permutations, capped. The query body has
	// one ordering and one routing, so each of r's orderings is one plan.
	prog := mustParse(t, `
		r(A, B, C, D, E, F) :-
		    in(A, d:f1()), in(B, d:f2()), in(C, d:f3()),
		    in(D, d:f4()), in(E, d:f5()), in(F, d:f6()).
	`)
	rw := New(prog, Config{}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- r(A, B, C, D, E, F)."))
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != maxOrderings {
		t.Errorf("plans = %d, want the ordering cap %d", len(plans), maxOrderings)
	}
}

func TestPushBodyMultipleFiltersPushesOne(t *testing.T) {
	rw := New(&lang.Program{}, Config{}, fakePusher{"rel:equal": true})
	q := mustQuery(t, "?- in(P, rel:all('cast')) & P.role = 'x' & P.name = 'y'.")
	plans, err := rw.Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range plans {
		s := p.String()
		// One filter pushed into equal/3, the other remains a comparison.
		if strings.Contains(s, "rel:equal('cast'") && strings.Contains(s, "P.") {
			found = true
		}
	}
	if !found {
		t.Errorf("expected one pushed select and one residual filter:\n%s", plans[0])
	}
}

func TestPushBodyRequiresConstantTable(t *testing.T) {
	rw := New(&lang.Program{}, Config{}, fakePusher{"rel:equal": true})
	// Table name is a variable: no push possible.
	q := mustQuery(t, "?- in(T, d:tables()) & in(P, rel:all(T)) & P.role = 'x'.")
	plans, err := rw.Plans(q)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if strings.Contains(p.String(), "rel:equal") {
			t.Error("pushed selection despite variable table name")
		}
	}
}

func TestNeededKeysDeduplicatesSharedSubgoals(t *testing.T) {
	prog := mustParse(t, `
		a(X) :- in(X, d:f()).
		pair(X, Y) :- a(X), a(Y).
	`)
	rw := New(prog, Config{}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- pair(X, Y)."))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		if len(p.Rules[PredKey{Pred: "a", Adorn: "f"}]) != 1 {
			t.Errorf("shared subgoal duplicated:\n%s", p)
		}
	}
}

func TestBindingEqualityEnablesCall(t *testing.T) {
	// X is produced by an equality from a constant; the call becomes
	// schedulable only after it.
	prog := mustParse(t, `
		v(Y) :- X = 'k', in(Y, d:f(X)).
	`)
	rw := New(prog, Config{}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- v(Y)."))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		rules := p.Rules[PredKey{Pred: "v", Adorn: "f"}]
		for _, pr := range rules {
			body := pr.BodyInOrder()
			if _, isCmp := body[0].(*lang.Comparison); !isCmp {
				t.Errorf("equality not scheduled first:\n%s", pr)
			}
		}
	}
}

func TestMembershipOutputWithPathRequiresBoundRoot(t *testing.T) {
	// in(T.loc, ...) can only run once T is bound.
	prog := mustParse(t, `
		v(T) :- in(T, rel:all('inventory')), in(T.loc, d:valid()).
	`)
	rw := New(prog, Config{}, nil)
	plans, err := rw.Plans(mustQuery(t, "?- v(T)."))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range plans {
		for _, pr := range p.Rules[PredKey{Pred: "v", Adorn: "f"}] {
			body := pr.BodyInOrder()
			first, ok := body[0].(*lang.InCall)
			if !ok || first.Call.Domain != "rel" {
				t.Errorf("path-output call scheduled before its root was bound:\n%s", pr)
			}
		}
	}
}

func TestHeadConstantCountsAsBound(t *testing.T) {
	// Head constant 'k' makes d:f's argument ground even under adornment f.
	prog := mustParse(t, `
		v('k', Y) :- in(Y, d:f('k')).
	`)
	rw := New(prog, Config{}, nil)
	if _, err := rw.Plans(mustQuery(t, "?- v(A, B).")); err != nil {
		t.Fatalf("constant-head rule unplannable: %v", err)
	}
}
