package cim

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/term"
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
	for _, inv := range testbedInvariants(t) {
		if err := m.AddInvariant(inv); err != nil {
			t.Fatal(err)
		}
	}
	return m, d
}

// testbedInvariants parses invariantTestbed's equality and superset
// invariants.
func testbedInvariants(t *testing.T) []*lang.Invariant {
	t.Helper()
	var out []*lang.Invariant
	for _, src := range []string{
		"true => d:f(X) = d:g(X).",
		"V1 <= V2 => d:f(V2) >= d:f(V1).",
	} {
		inv, err := lang.ParseInvariant(src)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, inv)
	}
	return out
}

// workloadCalls drive the three invariant-serving paths.
var workloadCalls = []domain.Call{
	call("d", "g", term.Str("a")), // miss: primes the cache
	call("d", "f", term.Str("a")), // equality hit via d:f = d:g
	call("d", "f", term.Int(10)),  // miss: primes the superset
	call("d", "f", term.Int(99)),  // partial hit via the range superset
}

// runInvariantWorkload serves workloadCalls and returns the observed
// sources in order.
func runInvariantWorkload(t *testing.T, m *Manager) []Source {
	t.Helper()
	var sources []Source
	for _, c := range workloadCalls {
		resp, err := m.CallThrough(newCtx(), c)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, resp)
		sources = append(sources, resp.Source)
	}
	return sources
}

// TestServePathNeverScansLinearly is the index gate: equality probes,
// partial probes, flight attachment and cache scans examine only the
// call's bucket, so 500 registered invariants that apply to no call of
// the workload change neither a serving decision nor the candidate tally.
// Before each serve, the linear oracle must predict the decision.
func TestServePathNeverScansLinearly(t *testing.T) {
	run := func(irrelevant int) ([]Source, int64) {
		m, _ := invariantTestbed(t, testCfg())
		invs := testbedInvariants(t)
		for i := 0; i < irrelevant; i++ {
			inv, err := lang.ParseInvariant(fmt.Sprintf("true => syn:lookup%d(X) = syn:probe%d(X).", i, i))
			if err != nil {
				t.Fatal(err)
			}
			m.AddInvariant(inv)
		}
		var sources []Source
		for _, c := range workloadCalls {
			want, _ := linearLadder(m, invs, c)
			resp, err := m.CallThrough(newCtx(), c)
			if err != nil {
				t.Fatal(err)
			}
			drain(t, resp)
			if resp.Source != want {
				t.Fatalf("%s served from %v, linear oracle says %v", c, resp.Source, want)
			}
			sources = append(sources, resp.Source)
		}
		return sources, m.idxCandidates.Value()
	}
	sources, cands := run(0)
	want := []Source{SourceActual, SourceCacheEquality, SourceActual, SourceCachePartial}
	if !slices.Equal(sources, want) {
		t.Fatalf("served from %v, want %v", sources, want)
	}
	if cands == 0 {
		t.Fatal("no index candidates counted on the serve path")
	}
	loadedSources, loadedCands := run(500)
	if !slices.Equal(loadedSources, sources) || loadedCands != cands {
		t.Fatalf("with 500 irrelevant invariants: served from %v with %d candidates, want %v with %d",
			loadedSources, loadedCands, sources, cands)
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
		ctx, notes := notingCtx()
		ctx.Sched = domain.NewSched(4)
		resp, err := m.CallThrough(ctx, call("d", "f", term.Str("a")))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Source != SourceCacheEquality {
			t.Fatalf("source = %v, want equality hit", resp.Source)
		}
		byG, _ := notes.read(call("d", "g", term.Str("a")).Key())
		byH, _ := notes.read(call("d", "h", term.Str("a")).Key())
		if !byG || byH {
			t.Fatalf("run %d: served by d:g %v, d:h %v; want the first-registered invariant's d:g", i, byG, byH)
		}
		if got := drain(t, resp); len(got) != 1 || got[0].Key() != term.Str("from-g").Key() {
			t.Fatalf("answers = %v", got)
		}
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
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/invariants missing %q in:\n%s", want, body)
		}
	}
}
