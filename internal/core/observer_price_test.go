package core

import (
	"runtime"
	"testing"

	"hermes/internal/domains/avis"
	"hermes/internal/domains/relation"
	"hermes/internal/engine"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// priceProgram is the benchmark's mediator program: query3 joins a rope
// frame range with the cast table, news a newsreel range with each
// object's frames.
const priceProgram = `
	query3(First, Last, Object, Actor) :-
	    in(Object, avis:frames_to_objects('rope', First, Last)) &
	    in(P, ingres:equal('cast', 'role', Object)) &
	    =(P.name, Actor).
	news(First, Last, Object, Frames) :-
	    in(Object, avis:frames_to_objects('newsreel', First, Last)) &
	    in(Frames, avis:object_to_frames('newsreel', Object)).
`

// priceSystem builds the benchmark's sources, free of modelled cost, under
// a system with observer o (nil: none) and the CIM on or removed.
func priceSystem(t *testing.T, o *obs.Observer, cim bool) *System {
	t.Helper()
	store := avis.New("avis")
	avis.LoadRope(store)
	avis.Generate(store, "newsreel", 1200, 60, 1944)
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
	sys := NewSystem(Options{Obs: o, DisableCIM: !cim, Parallelism: 1})
	sys.Register(store)
	sys.Register(rel)
	if err := sys.LoadProgram(priceProgram); err != nil {
		t.Fatal(err)
	}
	return sys
}

// tracedQuery runs q the way hermesd's /query does: traced, drained, then
// its tree snapshotted and rendered as EXPLAIN.
func tracedQuery(t *testing.T, sys *System, q string) {
	cur, err := sys.QueryTracedCtx(sys.Ctx(), q, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := engine.CollectAll(cur); err != nil {
		t.Fatal(err)
	}
	_ = obs.Explain(cur.Span().Snapshot())
}

// queryPrice returns the objects and bytes one run of q allocates, after
// warm-up runs fill the caches and the statistics.
func queryPrice(t *testing.T, sys *System, q string) (allocs, bytes float64) {
	for i := 0; i < 20; i++ {
		tracedQuery(t, sys, q)
	}
	const n = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		tracedQuery(t, sys, q)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
}

// TestObserverPriceAllocsPer gates the observer's price per query: the
// objects a query allocates with an observer, as hermesd and the benchmark
// run, less what the same query allocates on a system without one. A warm
// CIM-hit query3 range (18 call spans, every one a hit) and a direct-route
// news join (40 call spans) are measured; the benchmark's queries have a
// handful of spans and pay less.
//
// Measured (go1.24, linux/amd64): the CIM hit pays 24 objects, the news
// join 30: the tree's chunks of span and tag records, one snapshot of it
// (nodes, tags, costs and the text of its names and numbers) and the
// EXPLAIN text. While every span was an object with its own name, tags and
// costs, rendered as they were set, they paid 123 and 223. The bounds
// allow about 20 %.
func TestObserverPriceAllocsPer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, tc := range []struct {
		name, query string
		cim         bool
		bound       float64
	}{
		{"CIM hit", "?- query3(82, 115, O, A).", true, 29},
		{"direct join", "?- news(295, 673, O, Frames).", false, 36},
	} {
		on, onBytes := queryPrice(t, priceSystem(t, obs.NewObserver(), tc.cim), tc.query)
		off, offBytes := queryPrice(t, priceSystem(t, nil, tc.cim), tc.query)
		price := on - off
		t.Logf("%s: %.1f objects (%.0f B) with the observer, %.1f (%.0f B) without: %.1f (%.0f B)",
			tc.name, on, onBytes, off, offBytes, price, onBytes-offBytes)
		if price > tc.bound {
			t.Errorf("%s: the observer costs %.1f objects per query, want <= %v", tc.name, price, tc.bound)
		}
	}
}
