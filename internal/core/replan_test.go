package core

import (
	"sort"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/engine"
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

// replanDomain builds the watchdog scenario: ok() is honestly priced,
// lie() claims ~10ms but takes 2s, and oth()/oth2() serve the union's
// second, honestly-priced rule.
func replanDomain() *claimedDomain {
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

const replanProgram = `
	u(X, Y) :- in(X, d:ok()) & in(Y, d:lie()).
	u(X, Y) :- in(X, d:oth()) & in(Y, d:oth2()).
`

// replanSystem wires the scenario at the given watchdog factor (0 = off).
// Parallelism 2 lets the union's two rules run as parallel lanes, which
// is where the watchdog lives.
func replanSystem(factor float64) (*System, *obs.Observer) {
	o := obs.NewObserver()
	sys := NewSystem(Options{Obs: o, DisableCIM: true, Parallelism: 2, ReplanFactor: factor})
	sys.Register(replanDomain())
	if err := sys.LoadProgram(replanProgram); err != nil {
		panic(err)
	}
	return sys, o
}

// runReplanQuery drains the union query and returns its sorted answer
// multiset plus the root span snapshot.
func runReplanQuery(t *testing.T, sys *System) ([]string, obs.SpanData) {
	t.Helper()
	cur, err := sys.QueryTraced("?- u(A, B).", false)
	if err != nil {
		t.Fatal(err)
	}
	answers, _, err := engine.CollectAll(cur)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(answers))
	for i, a := range answers {
		parts := make([]string, len(a.Vals))
		for j, v := range a.Vals {
			parts[j] = v.Key()
		}
		keys[i] = strings.Join(parts, "|")
	}
	sort.Strings(keys)
	return keys, cur.Span().Snapshot()
}

// findTag searches a span tree for a tag value.
func findTag(d obs.SpanData, key string) (string, bool) {
	if v, ok := d.Tags.Lookup(key); ok {
		return v, true
	}
	for _, c := range d.Children {
		if v, ok := findTag(c, key); ok {
			return v, true
		}
	}
	return "", false
}

// TestMidQueryReplan: the lying native estimator makes the optimizer
// believe the ok->lie order costs ~120ms when it actually takes seconds.
// With the watchdog armed, the losing lane must re-plan exactly once (the
// re-planned order blows its estimate too, but the query-wide budget is
// one), tag its span replan=1, and deliver exactly the answer multiset of
// a watchdog-free run. Everything runs on the virtual clock, so the
// behaviour is deterministic.
func TestMidQueryReplan(t *testing.T) {
	baseSys, baseObs := replanSystem(0)
	baseline, baseSnap := runReplanQuery(t, baseSys)
	if n := baseObs.Counter("hermes_plan_replans_total").Value(); n != 0 {
		t.Fatalf("watchdog-free run re-planned %d times", n)
	}
	if _, ok := findTag(baseSnap, "replan"); ok {
		t.Fatal("watchdog-free run tagged a replan span")
	}
	if len(baseline) != 5 {
		t.Fatalf("baseline answers = %d, want 5 (%v)", len(baseline), baseline)
	}

	sys, o := replanSystem(3)
	got, snap := runReplanQuery(t, sys)
	if n := o.Counter("hermes_plan_replans_total").Value(); n != 1 {
		t.Errorf("hermes_plan_replans_total = %d, want exactly 1", n)
	}
	if v, ok := findTag(snap, "replan"); !ok || v != "1" {
		t.Errorf("replan tag = %q (found %v), want \"1\"", v, ok)
	}
	if len(got) != len(baseline) {
		t.Fatalf("answers = %d, want %d", len(got), len(baseline))
	}
	for i := range got {
		if got[i] != baseline[i] {
			t.Fatalf("answer multiset diverged at %d: %q vs %q\nreplan: %v\nbase:   %v",
				i, got[i], baseline[i], got, baseline)
		}
	}
}
