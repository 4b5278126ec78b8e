package core

import (
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/engine"
	"hermes/internal/memo"
	"hermes/internal/term"
)

// memoSystem builds a mediator with the memo on over d, loaded with prog.
func memoSystem(t *testing.T, d domain.Domain, prog string) *System {
	t.Helper()
	mcfg := memo.DefaultConfig()
	sys := NewSystem(Options{Memo: &mcfg})
	sys.Register(d)
	if err := sys.LoadProgram(prog); err != nil {
		t.Fatal(err)
	}
	return sys
}

// queryVals runs q and returns each answer's first value.
func queryVals(t *testing.T, sys *System, q string) []string {
	t.Helper()
	answers, _, err := sys.QueryAll(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	out := make([]string, len(answers))
	for i, a := range answers {
		out[i] = a.Vals[0].String()
	}
	return out
}

// TestMemoFillDependsOnEqualityServingCall: d:g(1) is served from the
// cached d:f(1) through d:f(A) = d:g(A), so the memo relation built from
// it depends on d:f(1). Refreshing d:f(1) must drop the relation, and the
// rerun must answer from the refreshed entry instead of replaying it.
func TestMemoFillDependsOnEqualityServingCall(t *testing.T) {
	d := domaintest.New("d")
	for _, fn := range []string{"f", "g"} {
		d.Define(fn, domaintest.Func{Arity: 1, Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Str("a"), term.Str("b")}, nil
		}})
	}
	sys := memoSystem(t, d, `
		true => d:f(A) = d:g(A).
		p(X) :- in(X, d:g(1)).`)
	f1 := domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(1)}}
	if err := sys.PrimeCache([]domain.Call{f1}); err != nil {
		t.Fatal(err)
	}
	if got := queryVals(t, sys, "?- p(X)."); len(got) != 2 {
		t.Fatalf("first run: %v, want a and b", got)
	}
	if st := sys.CIM.Stats(); st.EqualityHits != 1 {
		t.Fatalf("cim stats %+v, want the first run served by an equality hit", st)
	}
	sys.CIM.Store(f1, []term.Value{term.Str("c")}, true, domain.CostVector{TAll: time.Second})
	if got := queryVals(t, sys, "?- p(X)."); len(got) != 1 || got[0] != "'c'" {
		t.Errorf("after refreshing d:f(1): %v, want ['c'] (memo stats %+v)", got, sys.Memo.Stats())
	}
	if st := sys.Memo.Stats(); st.Hits != 0 || st.Invalidations != 1 {
		t.Errorf("memo stats %+v, want no hit and one invalidation", st)
	}
}

// TestMemoFillDependsOnPartialServingCall: d:f(5) is served the cached
// d:f(1) as a partial answer through a superset invariant, then completed
// by the source. The memo relation depends on d:f(1) too, so refreshing
// d:f(1) drops it.
func TestMemoFillDependsOnPartialServingCall(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, Fn: func(args []term.Value) ([]term.Value, error) {
		if n, _ := term.Numeric(args[0]); n <= 1 {
			return []term.Value{term.Str("a")}, nil
		}
		return []term.Value{term.Str("a"), term.Str("b")}, nil
	}})
	sys := memoSystem(t, d, `
		V1 <= V2 => d:f(V2) >= d:f(V1).
		p(X) :- in(X, d:f(5)).`)
	f1 := domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(1)}}
	if err := sys.PrimeCache([]domain.Call{f1}); err != nil {
		t.Fatal(err)
	}
	if got := queryVals(t, sys, "?- p(X)."); len(got) != 2 {
		t.Fatalf("first run: %v, want a and b", got)
	}
	if st := sys.CIM.Stats(); st.PartialHits != 1 {
		t.Fatalf("cim stats %+v, want the first run served by a partial hit", st)
	}
	sys.CIM.Store(f1, []term.Value{term.Str("a"), term.Str("c")}, true, domain.CostVector{TAll: time.Second})
	queryVals(t, sys, "?- p(X).")
	if st := sys.Memo.Stats(); st.Hits != 0 || st.Invalidations != 1 {
		t.Errorf("memo stats %+v, want the rerun to miss after one invalidation", st)
	}
}

// gatedDomain serves d:f, d:g and d:h, two answers each. A call of the
// gated function signals called, and its answer stream blocks before its
// first answer until release is closed, so a test can hold it in flight.
type gatedDomain struct {
	gated           string
	called, release chan struct{}
}

func (g *gatedDomain) Name() string { return "d" }

func (g *gatedDomain) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "f", Arity: 1}, {Name: "g", Arity: 1}, {Name: "h", Arity: 1}}
}

func (g *gatedDomain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	inner := domain.NewSliceStream([]term.Value{term.Str("x"), term.Str("y")})
	if fn != g.gated {
		return inner, nil
	}
	g.called <- struct{}{}
	first := true
	return domain.NewFuncStream(func() (term.Value, bool, error) {
		if first {
			first = false
			<-g.release
		}
		return inner.Next()
	}, inner.Close), nil
}

// awaitShare waits until a CIM miss has attached to a call in flight.
func awaitShare(t *testing.T, sys *System) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); sys.CIM.Stats().SingleFlightShares == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no miss ever attached to the call in flight")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMemoFillDependsOnEquivalentFlight: a miss on d:g(1) attaches to the
// in-flight d:f(1) through d:f(A) = d:g(A) and reads its answers, so the
// memo relation depends on d:f(1), the only one of the two calls the
// flight caches. Refreshing d:f(1) must drop the relation.
func TestMemoFillDependsOnEquivalentFlight(t *testing.T) {
	g := &gatedDomain{gated: "f", called: make(chan struct{}, 2), release: make(chan struct{})}
	sys := memoSystem(t, g, `
		true => d:f(A) = d:g(A).
		p(X) :- in(X, d:g(1)).`)
	errs := make(chan error, 2)
	query := func(q string) {
		_, _, err := sys.QueryAll(q)
		errs <- err
	}
	go query("?- in(X, d:f(1)).")
	<-g.called // d:f(1) is in flight: the next query's miss finds it
	go query("?- p(X).")
	awaitShare(t, sys)
	close(g.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	f1 := domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(1)}}
	sys.CIM.Store(f1, []term.Value{term.Str("c")}, true, domain.CostVector{TAll: time.Second})
	if got := queryVals(t, sys, "?- p(X)."); len(got) != 1 || got[0] != "'c'" {
		t.Errorf("after refreshing d:f(1): %v, want ['c'] (memo stats %+v)", got, sys.Memo.Stats())
	}
}

// TestMemoFillDependsOnPartialCompletionFlight: d:f(5) is one partial hit
// off the cached d:f(1), and its completion call attaches to the in-flight
// d:h(5) through d:f(A) = d:h(A). The completion read d:h(5)'s answers, so
// the memo relation depends on d:h(5): refreshing it must drop the relation.
func TestMemoFillDependsOnPartialCompletionFlight(t *testing.T) {
	g := &gatedDomain{gated: "h", called: make(chan struct{}, 2), release: make(chan struct{})}
	sys := memoSystem(t, g, `
		true => d:f(A) = d:h(A).
		V1 <= V2 => d:f(V2) >= d:f(V1).
		p(X) :- in(X, d:f(5)).`)
	f1 := domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(1)}}
	if err := sys.PrimeCache([]domain.Call{f1}); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	query := func(q string) {
		_, _, err := sys.QueryAll(q)
		errs <- err
	}
	go query("?- in(X, d:h(5)).")
	<-g.called // d:h(5) is in flight
	go query("?- p(X).")
	awaitShare(t, sys)
	close(g.release)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if st := sys.CIM.Stats(); st.PartialHits != 1 || st.SingleFlightShares != 1 {
		t.Fatalf("cim stats %+v, want one partial hit whose completion shared a flight", st)
	}
	h5 := domain.Call{Domain: "d", Function: "h", Args: []term.Value{term.Int(5)}}
	sys.CIM.Store(h5, []term.Value{term.Str("c")}, true, domain.CostVector{TAll: time.Second})
	queryVals(t, sys, "?- p(X).")
	if st := sys.Memo.Stats(); st.Hits != 0 || st.Invalidations != 1 {
		t.Errorf("memo stats %+v, want the rerun to miss after one invalidation", st)
	}
}

// TestMemoResidencyAgrees: the estimator prices residency with the
// engine's own memo key, so the subgoals the chosen plan's estimate prices
// at replay (CostDetail.MemoHits) are the memo hits the engine records
// when it runs that plan next. The occurrences cover a constant argument,
// a variable known through X = const, a repeated free variable, and a
// relation resident with a variable bound only at run time inside it.
// The estimator cannot know a value bound only at run time, or one
// selected by an attribute path from a record bound at run time, so it
// prices those occurrences at source: their cases bind values no earlier
// query bound, and the engine misses too.
func TestMemoResidencyAgrees(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, Fn: func(args []term.Value) ([]term.Value, error) {
		x := int64(args[0].(term.Int))
		return []term.Value{term.Int(10 * x), term.Int(10*x + 1)}, nil
	}})
	d.Define("g", domaintest.Func{Fn: func([]term.Value) ([]term.Value, error) {
		return []term.Value{term.Int(7)}, nil
	}})
	d.Define("h", domaintest.Func{Fn: func([]term.Value) ([]term.Value, error) {
		return []term.Value{term.Int(1), term.Int(2)}, nil
	}})
	d.Define("rec", domaintest.Func{Fn: func([]term.Value) ([]term.Value, error) {
		return []term.Value{term.NewRecord(term.Field{Name: "k", Val: term.Int(9)})}, nil
	}})
	sys := memoSystem(t, d, `
		p(X, Y) :- in(Y, d:f(X)).
		pp(X, Y) :- in(X, d:h()) & in(Y, d:h()).
		q(Y) :- in(X, d:g()) & p(X, Y).`)
	for _, tc := range []struct {
		query string
		warm  bool // run once before the plan is ranked
		hits  int
	}{
		{"?- p(1, Y).", false, 0},
		{"?- p(1, Y).", true, 1},                     // a constant argument
		{"?- X = 1 & p(X, Y).", false, 1},            // known through X = 1: p(1, Y)'s entry
		{"?- pp(Z, Z).", true, 1},                    // a repeated free variable
		{"?- pp(A, B).", false, 0},                   // not pp(Z, Z)'s entry
		{"?- q(Y).", true, 1},                        // X is bound only at run time inside q
		{"?- in(X, d:g()) & p(X, Y).", false, 0},     // X is bound only at run time
		{"?- in(R, d:rec()) & p(R.k, Y).", false, 0}, // an attribute path
	} {
		if tc.warm {
			queryVals(t, sys, tc.query)
		}
		plans, err := sys.Plans(tc.query)
		if err != nil {
			t.Fatal(err)
		}
		best, _, detail, err := sys.estimator.Best(plans, false)
		if err != nil {
			t.Fatal(err)
		}
		before := sys.Memo.Stats().Hits
		cur, err := sys.Execute(best)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.CollectAll(cur); err != nil {
			t.Fatal(err)
		}
		ran := sys.Memo.Stats().Hits - before
		if detail.MemoHits != ran || ran != tc.hits {
			t.Errorf("%s: estimate priced %d subgoals at replay, the run hit the memo %d times, want %d", tc.query, detail.MemoHits, ran, tc.hits)
		}
	}
}
