package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"hermes/internal/cim"
	"hermes/internal/domain/domaintest"
	"hermes/internal/domains/avis"
	"hermes/internal/domains/relation"
	"hermes/internal/memo"
	"hermes/internal/term"
)

// hotProgram is the benchmark's program for its cache workloads: the
// actors and query3 rules and the two AVIS invariants.
const hotProgram = `
	actors(Actor) :- in(Actor, avis:actors('rope')).
	query3(First, Last, Object, Actor) :-
	    in(Object, avis:frames_to_objects('rope', First, Last)) &
	    in(P, ingres:equal('cast', 'role', Object)) &
	    =(P.name, Actor).
	true => avis:frames_to_objects(V, F, L) = avis:objects_in_range(V, F, L).
	F1 <= G1 & G2 <= F2 => avis:frames_to_objects(V, F1, F2) >= avis:frames_to_objects(V, G1, G2).
`

// hotForms renders the four query forms of the benchmark's cache_hot
// workload over a frame range.
func hotForms(f, l int) []string {
	return []string{
		fmt.Sprintf("?- query3(%d, %d, O, A).", f, l),
		fmt.Sprintf("?- in(O, avis:frames_to_objects('rope', %d, %d)) & in(P, ingres:equal('cast', 'role', O)) & =(P.name, A).", f, l),
		fmt.Sprintf("?- in(O, avis:objects_in_range('rope', %d, %d)).", f, l),
		"?- actors(A).",
	}
}

// hotSystem builds the rope store and the cast table, free of modelled
// cost, under a system with the CIM and the memo, as the cache workloads
// run.
func hotSystem(t *testing.T) *System {
	t.Helper()
	store := avis.New("avis")
	avis.LoadRope(store)
	store.SetCostParams(avis.CostParams{})
	rel := relation.New("ingres")
	rel.SetCostParams(relation.CostParams{})
	cast := rel.MustCreateTable(relation.Schema{Name: "cast", Cols: []relation.Column{
		{Name: "name", Type: relation.TString},
		{Name: "role", Type: relation.TString},
	}})
	for _, c := range avis.RopeCast {
		cast.MustInsert(term.Str(c.Actor), term.Str(c.Role))
	}
	ccfg, mcfg := cim.DefaultConfig(), memo.DefaultConfig()
	sys := NewSystem(Options{CIM: &ccfg, Memo: &mcfg, Parallelism: 1})
	sys.Register(store)
	sys.Register(rel)
	if err := sys.LoadProgram(hotProgram); err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestPreparedExecutionAllocsPer gates what a warm query of each
// cache_hot form allocates from its text to an open cursor: lexing,
// lifting its constants into its shape's query, the plan, its ranking and
// the cursor over the shape's compiled program.
//
// Measured (go1.24, linux/amd64): 10, 10, 18 and 7 objects; about half
// are the query context and the cursor, and form 2's ranking spends 8
// (TestRankAllocsPer). While the estimator walked the rules by name they
// were 21, 15, 21 and 15, and while every query was also parsed and its
// plan compiled, 44, 56, 38 and 32. The ceilings allow about 20 %.
func TestPreparedExecutionAllocsPer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	sys := hotSystem(t)
	ceilings := []float64{12, 12, 22, 9}
	warm, asked := hotForms(82, 115), hotForms(90, 130)
	for i, q := range append(warm, asked...) {
		if _, _, err := sys.QueryAll(q); err != nil {
			t.Fatalf("form %d: %v", i%4, err)
		}
	}
	for i, q := range asked {
		n := testing.AllocsPerRun(100, func() {
			cur, err := sys.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			cur.Close()
		})
		t.Logf("form %d: %v objects", i, n)
		if n > ceilings[i] {
			t.Errorf("%s: %v objects from text to an open cursor, want at most %v", q, n, ceilings[i])
		}
	}
}

// TestPreparedExecutionConcurrent: goroutines running one shape, each
// with its own constants, share its compiled programs, including the IDB
// rules compiled when evaluation first reaches them, and each gets its
// own answers, on parallel lanes (run under -race in CI).
func TestPreparedExecutionConcurrent(t *testing.T) {
	d := domaintest.New("d")
	// f(X) is X+1 and X+2; g(X) is 10 X; h(X) is 100 X.
	scale := func(k int64) func([]term.Value) ([]term.Value, error) {
		return func(args []term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(k * int64(args[0].(term.Int)))}, nil
		}
	}
	d.Define("f", domaintest.Func{Arity: 1, Fn: func(args []term.Value) ([]term.Value, error) {
		x := int64(args[0].(term.Int))
		return []term.Value{term.Int(x + 1), term.Int(x + 2)}, nil
	}})
	d.Define("g", domaintest.Func{Arity: 1, Fn: scale(10)})
	d.Define("h", domaintest.Func{Arity: 1, Fn: scale(100)})
	sys := NewSystem(Options{Parallelism: 4})
	sys.Register(d)
	// u is a union, run on parallel lanes; w's two calls are independent
	// of each other, and spooled on lanes.
	if err := sys.LoadProgram(`
		u(X, Y) :- in(Y, d:g(X)).
		u(X, Y) :- in(Y, d:h(X)).
		w(X, Y, Z) :- in(Y, d:g(X)) & in(Z, d:h(X)).
		top(X, Y, Z) :- in(V, d:f(X)) & u(V, Y) & w(V, Y2, Z) & Y2 > 0.
	`); err != nil {
		t.Fatal(err)
	}
	want := func(x int64) []string {
		var out []string
		for _, v := range []int64{x + 1, x + 2} {
			for _, y := range []int64{10 * v, 100 * v} {
				out = append(out, fmt.Sprintf("{Y=%d, Z=%d}", y, 100*v))
			}
		}
		slices.Sort(out)
		return out
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				x := int64(g*100 + i)
				q := fmt.Sprintf("?- top(%d, Y, Z).", x)
				answers, _, err := sys.QueryAll(q)
				if err != nil {
					errs <- fmt.Errorf("%s: %v", q, err)
					return
				}
				got := make([]string, len(answers))
				for k, a := range answers {
					got[k] = a.String()
				}
				slices.Sort(got)
				if !slices.Equal(got, want(x)) {
					errs <- fmt.Errorf("%s: %v, want %v", q, got, want(x))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPreparedErrorsNameOwnConstants: an error raised in a query of a
// shape whose program was compiled for an earlier query names the
// query's own literal, with its own constants.
func TestPreparedErrorsNameOwnConstants(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, Fn: func(args []term.Value) ([]term.Value, error) {
		return []term.Value{args[0]}, nil
	}})
	sys := NewSystem(Options{})
	sys.Register(d)
	for _, k := range []int{1, 2} {
		q := fmt.Sprintf("?- in(X, d:f(%d)) & X < 'z%d'.", k, k)
		_, _, err := sys.QueryAll(q)
		if want := fmt.Sprintf("X < 'z%d'", k); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %s", q, err, want)
		}
	}
}

// answerText runs q and renders its answers, sorted.
func answerText(t *testing.T, sys *System, q string) string {
	t.Helper()
	answers, _, err := sys.QueryAll(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	got := make([]string, len(answers))
	for i, a := range answers {
		got[i] = a.String()
	}
	slices.Sort(got)
	return strings.Join(got, " ")
}
