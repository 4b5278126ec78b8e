package core

import (
	"strings"
	"testing"
	"time"

	"hermes/internal/domain/domaintest"
	"hermes/internal/engine"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// TestQueryTracedExplain runs the full traced pipeline twice and checks
// the rendered EXPLAIN tree: root query span, rewrite and plan-choice
// children, and a call span that reports cim=exact with both estimated
// and actual cost vectors on the warm run.
func TestQueryTracedExplain(t *testing.T) {
	o := obs.NewObserver()
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 10 * time.Millisecond, PerAnswer: time.Millisecond,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Str("a"), term.Str("b")}, nil
		}})
	sys := NewSystem(Options{Obs: o})
	sys.Register(d)
	if err := sys.LoadProgram(`v(X) :- in(X, d:f(1)).`); err != nil {
		t.Fatal(err)
	}

	run := func() *engine.Cursor {
		t.Helper()
		cur, err := sys.QueryTraced("?- v(X).", false)
		if err != nil {
			t.Fatal(err)
		}
		answers, _, err := engine.CollectAll(cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) != 2 {
			t.Fatalf("answers = %d, want 2", len(answers))
		}
		return cur
	}
	run()        // cold: miss, measured into the DCSM
	cur := run() // warm: cache-exact, estimate now available

	text := obs.Explain(cur.Span().Snapshot())
	for _, want := range []string{
		"?- v(X).",    // root span named after the query
		"rewrite",     // rewriter child
		"plan-choice", // optimizer child
		"call d:f(1)", // per-subgoal call span
		"cim=exact",   // CIM serving outcome on the warm run
		"est=[",       // DCSM estimate attached to the call
		"actual=[",    // measured [Tf, Ta, Card]
		"complete=true",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("explain output missing %q:\n%s", want, text)
		}
	}

	if started, finished, _ := o.Flight.Counts(); started != 2 || finished != 2 {
		t.Errorf("flight recorder counts = %d started, %d finished, want 2/2", started, finished)
	}
	if v := o.Counter("hermes_cim_lookups_total", "outcome", "exact").Value(); v != 1 {
		t.Errorf("exact-hit counter = %d, want 1", v)
	}
	if v := o.Counter("hermes_cim_lookups_total", "outcome", "miss").Value(); v != 1 {
		t.Errorf("miss counter = %d, want 1", v)
	}
	if v := o.Counter("hermes_queries_total").Value(); v != 2 {
		t.Errorf("query counter = %d, want 2", v)
	}
}
