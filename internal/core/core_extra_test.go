package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"hermes/internal/cim"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/domains/spatial"
	"hermes/internal/engine"
	"hermes/internal/lang"
	"hermes/internal/memo"
	"hermes/internal/netsim"
	"hermes/internal/oracle"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/workload"
)

// oracleRows evaluates query over program with the reference evaluator
// against the raw sources.
func oracleRows(t *testing.T, program, query string, sources ...domain.Domain) [][]term.Value {
	t.Helper()
	prog, err := lang.ParseProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	q, err := lang.ParseQuery(query)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := oracle.Eval(prog, q, sources...)
	if err != nil {
		t.Fatalf("oracle %s: %v", query, err)
	}
	return rows
}

// rowsOf turns engine answers into the rows internal/oracle compares.
func rowsOf(answers []engine.Answer) [][]term.Value {
	out := make([][]term.Value, len(answers))
	for i, a := range answers {
		out[i] = a.Vals
	}
	return out
}

// TestPlanEquivalenceOverRandomData: every plan the rewriter emits for a
// join query over a randomized federation computes the reference
// evaluator's answer bag.
func TestPlanEquivalenceOverRandomData(t *testing.T) {
	cfg := workload.DefaultFederation()
	cfg.RowsMax = 40
	_, rel := workload.Federation(cfg)
	sys := NewSystem(Options{})
	sys.Register(rel)
	const program = `
		entry(K, V) :- in(P, rel:all('table00')), =(P.k, K), =(P.v, V).
		pair(K, V1, V2) :- entry(K, V1), entry(K, V2), V1 < V2.
	`
	if err := sys.LoadProgram(program); err != nil {
		t.Fatal(err)
	}
	plans, err := sys.Plans("?- pair(K, A, B).")
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) < 2 {
		t.Fatalf("want multiple plans, got %d", len(plans))
	}
	want := oracleRows(t, program, "?- pair(K, A, B).", rel)
	if len(want) == 0 {
		t.Fatal("query returned nothing; test data degenerate")
	}
	for i, p := range plans {
		sys.CIM.Clear()
		cur, err := sys.Execute(p)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		answers, _, err := engine.CollectAll(cur)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if !oracle.Equal(rowsOf(answers), want) {
			t.Fatalf("plan %d: %d answers, the oracle's %d, or a different multiset\n%s", i, len(answers), len(want), p)
		}
	}
}

// TestOptimizerChoosesCIMRoutingWhenCached: with routing enumeration on,
// the estimator should route a cached expensive call through the CIM, and
// the same call through the source while the cache is cold.
func TestOptimizerChoosesCIMRoutingWhenCached(t *testing.T) {
	d := domaintest.New("slow")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 8 * time.Second,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Str("x"), term.Str("y")}, nil
		}})
	sys := NewSystem(Options{
		Rewrite: &rewrite.Config{EnumerateRouting: true, CIMDomains: map[string]bool{}},
	})
	sys.Register(d)
	if err := sys.LoadProgram(`v(X) :- in(X, slow:f(1)).`); err != nil {
		t.Fatal(err)
	}
	// Warm statistics so the direct plan has a realistic (expensive) cost.
	if err := sys.WarmStatistics([]domain.Call{
		{Domain: "slow", Function: "f", Args: []term.Value{term.Int(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	routeOf := func(p *rewrite.Plan) rewrite.Route {
		rules := p.Rules[rewrite.PredKey{Pred: "v", Adorn: "f"}]
		return rules[0].RouteInOrder(0)
	}
	// Cold cache: either route costs the actual call; after priming the
	// cache, the CIM route must win.
	if err := sys.PrimeCache([]domain.Call{
		{Domain: "slow", Function: "f", Args: []term.Value{term.Int(1)}},
	}); err != nil {
		t.Fatal(err)
	}
	plan, cv, err := sys.Optimize("?- v(X).", false)
	if err != nil {
		t.Fatal(err)
	}
	if routeOf(plan) != rewrite.RouteCIM {
		t.Errorf("optimizer did not route the cached call via CIM:\n%s (cost %v)", plan, cv)
	}
	if cv.TAll > time.Second {
		t.Errorf("CIM-routed estimate = %v, want cache-serve cost", cv.TAll)
	}
}

// TestSpatialInvariantEndToEnd drives the paper's §4 spatial example
// through the whole system: program + invariant text, optimizer, engine,
// CIM.
func TestSpatialInvariantEndToEnd(t *testing.T) {
	s := spatial.New("spatial")
	var pts []spatial.Point
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			pts = append(pts, spatial.Point{ID: fmt.Sprintf("p%02d%02d", i, j),
				X: float64(i * 11), Y: float64(j * 11)})
		}
	}
	s.MustAddFile("points", pts)
	sys := NewSystem(Options{})
	sys.Register(netsim.Wrap(s, netsim.USAEast))
	if err := sys.LoadProgram(`
		near(X, Y, D, P) :- in(P, spatial:range('points', X, Y, D)).
		% All points lie in a 100x100 square: any query wider than the
		% diagonal equals the clamped query.
		D > 142 => spatial:range('points', X, Y, D) = spatial:range('points', X, Y, 142).
	`); err != nil {
		t.Fatal(err)
	}
	// Prime with the clamped query.
	prime, _, err := sys.QueryAll("?- near(50, 50, 142, P).")
	if err != nil {
		t.Fatal(err)
	}
	if len(prime) != 100 {
		t.Fatalf("clamped query = %d answers", len(prime))
	}
	// A query with a huge radius is answered from cache via the invariant.
	answers, metrics, err := sys.QueryAll("?- near(50, 50, 9000, P).")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 100 {
		t.Fatalf("wide query = %d answers", len(answers))
	}
	if st := sys.CIM.Stats(); st.EqualityHits != 1 {
		t.Errorf("equality hits = %d, want 1 (%+v)", st.EqualityHits, st)
	}
	if metrics.TAll > 2*time.Second {
		t.Errorf("cache-served query took %v", metrics.TAll)
	}
}

// TestSystemPersistenceRoundTrip: save the cache and statistics, rebuild
// the system, load, and keep answering without source calls.
func TestSystemPersistenceRoundTrip(t *testing.T) {
	build := func() (*System, *domaintest.Domain) {
		d := domaintest.New("d")
		d.Define("f", domaintest.Func{Arity: 1, PerCall: time.Second,
			Fn: func(args []term.Value) ([]term.Value, error) {
				return []term.Value{args[0], term.Str("extra")}, nil
			}})
		sys := NewSystem(Options{})
		sys.Register(d)
		if err := sys.LoadProgram(`v(X, Y) :- in(Y, d:f(X)).`); err != nil {
			t.Fatal(err)
		}
		return sys, d
	}
	sys1, _ := build()
	if _, _, err := sys1.QueryAll("?- v(7, Y)."); err != nil {
		t.Fatal(err)
	}
	var cacheBuf, statsBuf bytes.Buffer
	if err := sys1.CIM.Save(&cacheBuf); err != nil {
		t.Fatal(err)
	}
	if err := sys1.DCSM.Save(&statsBuf); err != nil {
		t.Fatal(err)
	}

	sys2, d2 := build()
	if err := sys2.CIM.Load(&cacheBuf); err != nil {
		t.Fatal(err)
	}
	if err := sys2.DCSM.Load(&statsBuf); err != nil {
		t.Fatal(err)
	}
	answers, _, err := sys2.QueryAll("?- v(7, Y).")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("answers = %v", answers)
	}
	if n := d2.CallCount("f"); n != 0 {
		t.Errorf("reloaded system called the source %d times", n)
	}
	// Statistics survived too: the estimator knows the call's cost.
	cv, err := sys2.DCSM.Cost(domain.Pattern{Domain: "d", Function: "f",
		Args: []domain.PatternArg{domain.Const(term.Int(7))}})
	if err != nil {
		t.Fatal(err)
	}
	if cv.TAll < time.Second {
		t.Errorf("reloaded stats Ta = %v, want ≥1s", cv.TAll)
	}
}

// TestInvalidInvariantRejected: LoadProgram must reject ill-formed
// invariants (free condition variables).
func TestInvalidInvariantRejected(t *testing.T) {
	sys := NewSystem(Options{})
	err := sys.LoadProgram("Z > 3 => d:f(X) = d:g(X).")
	if err == nil {
		t.Error("free condition variable should be rejected")
	}
}

// TestCIMConfigThroughOptions: a custom CIM config takes effect.
func TestCIMConfigThroughOptions(t *testing.T) {
	ccfg := cim.DefaultConfig()
	ccfg.MaxEntries = 1
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			return []term.Value{args[0]}, nil
		}})
	sys := NewSystem(Options{CIM: &ccfg})
	sys.Register(d)
	if err := sys.PrimeCache([]domain.Call{
		{Domain: "d", Function: "f", Args: []term.Value{term.Int(1)}},
		{Domain: "d", Function: "f", Args: []term.Value{term.Int(2)}},
	}); err != nil {
		t.Fatal(err)
	}
	if sys.CIM.Len() != 1 {
		t.Errorf("MaxEntries ignored: %d entries", sys.CIM.Len())
	}
}

// TestDisableCIM: with the CIM off, repeated queries always call the
// source.
func TestDisableCIM(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(1)}, nil
		}})
	sys := NewSystem(Options{DisableCIM: true})
	sys.Register(d)
	if err := sys.LoadProgram(`v(X) :- in(X, d:f()).`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := sys.QueryAll("?- v(X)."); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.CallCount("f"); n != 3 {
		t.Errorf("source called %d times, want 3", n)
	}
	if sys.CIM != nil {
		t.Error("CIM should be nil when disabled")
	}
}

// TestDefaultOptionsChargeNoOverhead: with every option at its default and
// the memo on, the only time a query costs is its sources' — over a
// zero-cost source a cold run, a CIM exact hit and a memo replay all read
// zero on the execution clock.
func TestDefaultOptionsChargeNoOverhead(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, Fn: func([]term.Value) ([]term.Value, error) {
		return []term.Value{term.Str("a"), term.Str("b")}, nil
	}})
	mcfg := memo.DefaultConfig()
	sys := NewSystem(Options{Memo: &mcfg})
	sys.Register(d)
	if err := sys.LoadProgram(`v(X) :- in(X, d:f(1)).`); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"?- v(X).",          // cold
		"?- in(X, d:f(1)).", // the call again, outside the rule: CIM exact hit
		"?- v(X).",          // the subgoal again: memo replay
	} {
		answers, m, err := sys.QueryAll(q)
		if err != nil || len(answers) != 2 {
			t.Fatalf("%s: %d answers, err %v", q, len(answers), err)
		}
		if m.TFirst != 0 || m.TAll != 0 {
			t.Errorf("%s: TFirst=%v TAll=%v, want 0 and 0", q, m.TFirst, m.TAll)
		}
	}
	if cs, ms := sys.CIM.Stats(), sys.Memo.Stats(); cs.Misses != 1 || cs.ExactHits != 1 || ms.Hits != 1 {
		t.Fatalf("want one miss, one CIM exact hit, one memo hit; got cim %+v memo %+v", cs, ms)
	}
}

// TestMemoFillOverRefreshedCallStoresNothing: a memo fill whose input call
// the CIM refreshes while the fill runs has read answers that are no
// longer current. It must store nothing, so the next run answers from the
// refreshed entry instead of replaying the stale relation.
func TestMemoFillOverRefreshedCallStoresNothing(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 0, Fn: func([]term.Value) ([]term.Value, error) {
		return []term.Value{term.Str("a"), term.Str("b")}, nil
	}})
	mcfg := memo.DefaultConfig()
	sys := NewSystem(Options{Memo: &mcfg})
	sys.Register(d)
	if err := sys.LoadProgram(`p(X) :- in(X, d:f()).`); err != nil {
		t.Fatal(err)
	}
	call := domain.Call{Domain: "d", Function: "f"}
	if err := sys.PrimeCache([]domain.Call{call}); err != nil {
		t.Fatal(err)
	}
	cur, err := sys.Query("?- p(X).")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := cur.Next(); !ok || err != nil {
		t.Fatalf("first answer: ok=%v err=%v", ok, err)
	}
	sys.CIM.Store(call, []term.Value{term.Str("c")}, true, domain.CostVector{TAll: time.Second})
	for {
		_, ok, err := cur.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	answers, _, err := sys.QueryAll("?- p(X).")
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 1 || !term.Equal(answers[0].Vals[0], term.Str("c")) {
		t.Errorf("after the refresh: answers %v, want [c] (memo stats %+v)", answers, sys.Memo.Stats())
	}
	if st := sys.Memo.Stats(); st.Hits != 0 || st.Invalidations != 1 {
		t.Errorf("memo stats %+v, want no hit and the stale fill dropped as one invalidation", st)
	}
}
