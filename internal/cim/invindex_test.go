package cim

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// invariantTestbed builds a manager over one source domain with an
// equality and a superset invariant, primed so that equality, partial
// and miss probes all occur.
func invariantTestbed(t *testing.T, cfg Config) (*Manager, *domaintest.Domain) {
	t.Helper()
	d := domaintest.New("d")
	fn := func(args []term.Value) ([]term.Value, error) { return strs("x", "y"), nil }
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 50 * time.Millisecond, Fn: fn})
	d.Define("g", domaintest.Func{Arity: 1, PerCall: 50 * time.Millisecond, Fn: fn})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, cfg)
	for _, src := range []string{
		"true => d:f(X) = d:g(X).",
		"V1 <= V2 => d:f(V2) >= d:f(V1).",
	} {
		inv, err := lang.ParseInvariant(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddInvariant(inv); err != nil {
			t.Fatal(err)
		}
	}
	return m, d
}

// runInvariantWorkload drives the three invariant-serving paths and
// returns the observed sources in order.
func runInvariantWorkload(t *testing.T, m *Manager) []Source {
	t.Helper()
	var sources []Source
	for _, c := range []domain.Call{
		call("d", "g", term.Str("a")), // miss: primes the cache
		call("d", "f", term.Str("a")), // equality hit via d:f = d:g
		call("d", "f", term.Int(10)),  // miss: primes the superset
		call("d", "f", term.Int(99)),  // partial hit via the range superset
	} {
		resp, err := m.CallThrough(newCtx(), c)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, resp)
		sources = append(sources, resp.Source)
	}
	return sources
}

// TestServePathNeverScansLinearly is the scan-counter gate: with the
// index active, equality probes, partial probes, flight attachment and
// cache scans must complete without one full linear scan; the
// LinearMatching oracle must take them (and agree on every serving
// decision).
func TestServePathNeverScansLinearly(t *testing.T) {
	indexed, _ := invariantTestbed(t, testCfg())
	idxSources := runInvariantWorkload(t, indexed)
	if n := indexed.LinearScans(); n != 0 {
		t.Fatalf("indexed serve path performed %d linear scans, want 0", n)
	}

	linCfg := testCfg()
	linCfg.LinearMatching = true
	linear, _ := invariantTestbed(t, linCfg)
	linSources := runInvariantWorkload(t, linear)
	if n := linear.LinearScans(); n == 0 {
		t.Fatal("LinearMatching oracle performed no linear scans")
	}
	for i := range idxSources {
		if idxSources[i] != linSources[i] {
			t.Fatalf("serving decisions diverged at call %d: indexed %v, linear %v", i, idxSources[i], linSources[i])
		}
	}
	want := []Source{SourceActual, SourceCacheEquality, SourceActual, SourceCachePartial}
	for i, w := range want {
		if idxSources[i] != w {
			t.Fatalf("call %d served from %v, want %v", i, idxSources[i], w)
		}
	}
}

// TestParallelEqualityMatchDeterministic pins the winner of an equality
// probe with several matching invariants: the first-registered one (lowest
// bucket position), on every run, with a scheduler that has lanes to give.
func TestParallelEqualityMatchDeterministic(t *testing.T) {
	d := domaintest.New("d")
	ans := func(vals ...string) func([]term.Value) ([]term.Value, error) {
		return func([]term.Value) ([]term.Value, error) { return strs(vals...), nil }
	}
	d.Define("f", domaintest.Func{Arity: 1, Fn: ans("unused")})
	d.Define("g", domaintest.Func{Arity: 1, Fn: ans("from-g")})
	d.Define("h", domaintest.Func{Arity: 1, Fn: ans("from-h", "extra")})

	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	// Registration order decides the winner: g before h.
	for _, src := range []string{
		"true => d:f(X) = d:g(X).",
		"true => d:f(X) = d:h(X).",
	} {
		inv, err := lang.ParseInvariant(src)
		if err != nil {
			t.Fatal(err)
		}
		m.AddInvariant(inv)
	}
	// Both equality targets are cached and complete.
	m.Store(call("d", "g", term.Str("a")), strs("from-g"), true, domain.CostVector{})
	m.Store(call("d", "h", term.Str("a")), strs("from-h", "extra"), true, domain.CostVector{})

	for i := 0; i < 25; i++ {
		ctx := domain.NewCtx(vclock.NewVirtual(0))
		ctx.Sched = domain.NewSched(4)
		resp, err := m.CallThrough(ctx, call("d", "f", term.Str("a")))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != SourceCacheEquality {
			t.Fatalf("source = %v, want equality hit", resp.Source)
		}
		if got := resp.ServingCall.Function; got != "g" {
			t.Fatalf("run %d: served by d:%s, want the first-registered invariant's d:g", i, got)
		}
		if got := drain(t, resp); len(got) != 1 || got[0].Key() != term.Str("from-g").Key() {
			t.Fatalf("answers = %v", got)
		}
	}
	if n := m.LinearScans(); n != 0 {
		t.Fatalf("indexed path fell back to %d linear scans", n)
	}
}

// TestInvariantsHandler pins the /debug/invariants text view: buckets
// with their invariant rows, joined with the savings ledger once an
// invariant has earned a hit.
func TestInvariantsHandler(t *testing.T) {
	m, _ := invariantTestbed(t, testCfg())
	runInvariantWorkload(t, m)

	rr := httptest.NewRecorder()
	m.InvariantsHandler().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/invariants", nil))
	body := rr.Body.String()
	for _, want := range []string{
		"invariant index: 2 invariants",
		"d:f/1:",
		"d:g/1:",
		"true => d:f(X) = d:g(X).",
		"hits=1",
		"linear scans 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/invariants missing %q in:\n%s", want, body)
		}
	}
}
