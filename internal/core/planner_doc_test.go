package core

import (
	"os"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/engine"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// claimedDomain wraps a scriptable domain with a fixed native cost model:
// the DCSM prefers native estimates over its statistics, so a wrong claim
// here misleads the optimizer no matter what the measurements say.
type claimedDomain struct {
	*domaintest.Domain
	claims map[string]domain.CostVector
}

func (d *claimedDomain) EstimateCost(p domain.Pattern) (domain.CostVector, []string, bool) {
	cv, ok := d.claims[p.Function]
	return cv, nil, ok
}

// plannerDomain builds docs/PLANNER.md's worked example: ok() is honestly
// priced, lie() claims ~10ms but takes 2s, and oth()/oth2() serve the
// union's second, honestly-priced rule.
func plannerDomain() *claimedDomain {
	vals := func(vs ...string) func([]term.Value) ([]term.Value, error) {
		out := make([]term.Value, len(vs))
		for i, v := range vs {
			out[i] = term.Str(v)
		}
		return func([]term.Value) ([]term.Value, error) { return out, nil }
	}
	d := domaintest.New("d")
	d.Define("lie", domaintest.Func{Arity: 0, PerCall: 2 * time.Second, PerAnswer: time.Millisecond, Fn: vals("l1", "l2")})
	d.Define("ok", domaintest.Func{Arity: 0, PerCall: 100 * time.Millisecond, PerAnswer: time.Millisecond, Fn: vals("o1", "o2")})
	d.Define("oth", domaintest.Func{Arity: 0, PerCall: 50 * time.Millisecond, PerAnswer: time.Millisecond, Fn: vals("t1")})
	d.Define("oth2", domaintest.Func{Arity: 0, PerCall: 50 * time.Millisecond, PerAnswer: time.Millisecond, Fn: vals("t2")})
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return &claimedDomain{Domain: d, claims: map[string]domain.CostVector{
		"lie":  {TFirst: ms(5), TAll: ms(10), Card: 2},
		"ok":   {TFirst: ms(50), TAll: ms(100), Card: 2},
		"oth":  {TFirst: ms(50), TAll: ms(50), Card: 1},
		"oth2": {TFirst: ms(50), TAll: ms(50), Card: 1},
	}}
}

// plannerSystem wires the example with the options docs/PLANNER.md
// states. Parallelism 2 runs the union's two rules as parallel lanes.
func plannerSystem(t *testing.T) *System {
	t.Helper()
	mcfg := memo.DefaultConfig()
	sys := NewSystem(Options{Obs: obs.NewObserver(), DisableCIM: true, Parallelism: 2,
		CalInflateQuantile: 0.9, ColdStartInflation: 1.5, Memo: &mcfg})
	sys.Register(plannerDomain())
	err := sys.LoadProgram(`
		u(X, Y) :- in(X, d:ok()) & in(Y, d:lie()).
		u(X, Y) :- in(X, d:oth()) & in(Y, d:oth2()).
	`)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// explainRun drains the example query on sys, checks that it delivered
// the union's five answers, and returns its EXPLAIN.
func explainRun(t *testing.T, sys *System) string {
	t.Helper()
	cur, err := sys.QueryTraced("?- u(A, B).", false)
	if err != nil {
		t.Fatal(err)
	}
	answers, m, err := engine.CollectAll(cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 5 || !m.Complete {
		t.Fatalf("answers = %v (complete %v), want the union's 5", answers, m.Complete)
	}
	return obs.Explain(cur.Span().Snapshot())
}

// TestPlannerDocExample: the EXPLAIN trees docs/PLANNER.md prints for its
// worked example — Run 1, then Runs 2 and 3 — are what the system renders.
func TestPlannerDocExample(t *testing.T) {
	doc, err := os.ReadFile("../../docs/PLANNER.md")
	if err != nil {
		t.Fatal(err)
	}
	var blocks []string
	fences := strings.Split(string(doc), "```")
	for i := 1; i < len(fences); i += 2 {
		if body := strings.TrimPrefix(fences[i], "\n"); strings.HasPrefix(body, "?- u(A, B).") {
			blocks = append(blocks, body)
		}
	}
	if len(blocks) != 2 {
		t.Fatalf("docs/PLANNER.md has %d EXPLAIN blocks of the example, want 2 (Run 1; Runs 2 and 3)", len(blocks))
	}
	sys := plannerSystem(t)
	for i, want := range []string{blocks[0], blocks[1], blocks[1]} {
		if got := explainRun(t, sys); got != want {
			t.Errorf("run %d renders\n%s\ndocs/PLANNER.md shows\n%s", i+1, got, want)
		}
	}
}

// TestParallelExplainDeterministic: on a virtual clock the example's
// parallel union renders one EXPLAIN, whichever lane goroutine opens its
// spans first.
func TestParallelExplainDeterministic(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 1000; i++ {
		seen[explainRun(t, plannerSystem(t))]++
	}
	if len(seen) != 1 {
		for text, n := range seen {
			t.Logf("%d runs rendered\n%s", n, text)
		}
		t.Fatalf("1000 runs rendered %d distinct EXPLAIN trees, want 1", len(seen))
	}
}
