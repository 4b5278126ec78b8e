// Benchmarks regenerating the paper's tables and figures (run with
// `go test -bench=. -benchmem`). Each BenchmarkFigure*/BenchmarkPlanChoice
// target drives the same harness as cmd/benchrunner; the remaining
// benchmarks measure the core mechanisms the paper's design choices trade
// off (statistics lookup under each summarization, cache service paths,
// plan enumeration, evaluation).
package hermes_test

import (
	"fmt"
	"testing"
	"time"

	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/engine"
	"hermes/internal/experiments"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/vclock"
	"hermes/internal/workload"
)

// --- Figures -------------------------------------------------------------

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlanChoice(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.PlanChoice(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2Tables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Figure2()
	}
}

func BenchmarkFigure3Summarize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4Analysis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations -------------------------------------------------------------

func BenchmarkAblationSummarization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationSummarization(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRecency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRecency(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationCachePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationCachePolicy(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationParallelPartial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationParallelPartial(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- DCSM estimation latency: detail vs summaries -------------------------

// trainDB loads n records for a 3-argument call.
func trainDB(b *testing.B, n int, raw bool) *dcsm.DB {
	b.Helper()
	db := dcsm.New(dcsm.Config{AllowRawAggregation: raw}, nil)
	for i := 0; i < n; i++ {
		db.Observe(domain.Measurement{
			Call: domain.Call{Domain: "d", Function: "f", Args: []term.Value{
				term.Str("rope"), term.Int(int64(i % 40)), term.Int(int64(i%40 + 30)),
			}},
			Cost:     domain.CostVector{TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 5},
			Complete: true,
		})
	}
	return db
}

var benchPattern = domain.Pattern{Domain: "d", Function: "f", Args: []domain.PatternArg{
	domain.Const(term.Str("rope")), domain.Const(term.Int(7)), domain.Bound,
}}

// BenchmarkDCSMLookupRaw measures estimation answered from the raw cost
// vector database (the "expensive aggregation" of §6.2, served by the
// per-mask index) at two history sizes: ns/op and allocs/op must not grow
// with the history.
func BenchmarkDCSMLookupRaw(b *testing.B) {
	for _, n := range []int{2000, 200000} {
		b.Run(fmt.Sprintf("records=%d", n), func(b *testing.B) {
			db := trainDB(b, n, true)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Cost(benchPattern); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDCSMLookupLossless measures estimation from lossless summary
// tables.
func BenchmarkDCSMLookupLossless(b *testing.B) {
	db := trainDB(b, 2000, false)
	if _, err := db.SummarizeLossless("d", "f", 3); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Summarize("d", "f", 3, []int{0, 1}); err != nil {
		b.Fatal(err)
	}
	db.DropDetail("d", "f", 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Cost(benchPattern); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDCSMLookupLossy measures estimation from the single-row fully
// lossy table.
func BenchmarkDCSMLookupLossy(b *testing.B) {
	db := trainDB(b, 2000, false)
	if _, err := db.SummarizeFullyLossy("d", "f", 3); err != nil {
		b.Fatal(err)
	}
	db.DropDetail("d", "f", 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Cost(benchPattern); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSummarize measures building a lossless summary from 2000
// records.
func BenchmarkSummarize(b *testing.B) {
	db := trainDB(b, 2000, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.SummarizeLossless("d", "f", 3); err != nil {
			b.Fatal(err)
		}
	}
}

// --- CIM service paths -----------------------------------------------------

func benchCIM(b *testing.B) (*cim.Manager, *domaintest.Domain) {
	b.Helper()
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			out := make([]term.Value, 16)
			for i := range out {
				out[i] = term.Int(int64(i))
			}
			return out, nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := cim.New(reg, cim.Config{ParallelActual: true})
	inv, err := lang.ParseInvariant("V1 <= V2 => d:f(V2) >= d:f(V1).")
	if err != nil {
		b.Fatal(err)
	}
	m.AddInvariant(inv)
	return m, d
}

func BenchmarkCIMExactHit(b *testing.B) {
	m, _ := benchCIM(b)
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	resp, err := m.CallThrough(ctx, domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(5)}})
	if err != nil {
		b.Fatal(err)
	}
	domain.Collect(resp.Stream)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := m.CallThrough(ctx, domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(5)}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := domain.Collect(resp.Stream); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCIMPartialHit(b *testing.B) {
	m, _ := benchCIM(b)
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	seed := domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(1)}}
	prefix := []term.Value{term.Int(0), term.Int(1)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Re-seed so every iteration takes the partial path (a completed
		// iteration stores the full answer set, which would turn the next
		// call into an exact hit).
		b.StopTimer()
		m.Clear()
		m.Store(seed, prefix, true, domain.CostVector{})
		b.StartTimer()
		resp, err := m.CallThrough(ctx, domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(9)}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := domain.Collect(resp.Stream); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCIMPartialLookupLargeCache measures invariant matching against
// a cache holding many entries of the same function — the linear scan the
// relevance dispatch cannot avoid, and the reason scan cost matters.
func BenchmarkCIMPartialLookupLargeCache(b *testing.B) {
	m, _ := benchCIM(b)
	for i := 0; i < 500; i++ {
		m.Store(domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(int64(i))}},
			[]term.Value{term.Int(int64(i))}, true, domain.CostVector{})
	}
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := m.CallThrough(ctx, domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(10_000)}})
		if err != nil {
			b.Fatal(err)
		}
		resp.Stream.Close()
	}
}

func BenchmarkCIMProbe(b *testing.B) {
	m, _ := benchCIM(b)
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	resp, _ := m.CallThrough(ctx, domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(1)}})
	domain.Collect(resp.Stream)
	call := domain.Call{Domain: "d", Function: "f", Args: []term.Value{term.Int(9)}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Probe(call)
	}
}

// --- rewriter + engine ------------------------------------------------------

const benchM1 = `
	access_equivalent('p', 2).
	access_equivalent('q', 2).
	m(A, C) :- p(A, B), q(B, C).
	p(A, B) :- in($ans, d1:p_ff()), =($ans.1, A), =($ans.2, B).
	p(A, B) :- in(B, d1:p_bf(A)).
	p(A, B) :- in($x, d1:p_bb(A, B)).
	q(B, C) :- in($ans, d2:q_ff()), =($ans.1, B), =($ans.2, C).
	q(B, C) :- in(C, d2:q_bf(B)).
`

func BenchmarkRewriterPlans(b *testing.B) {
	prog, err := lang.ParseProgram(benchM1)
	if err != nil {
		b.Fatal(err)
	}
	q, err := lang.ParseQuery("?- m('a', C).")
	if err != nil {
		b.Fatal(err)
	}
	rw := rewrite.New(prog, rewrite.Config{}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rw.Plans(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParseProgram(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := lang.ParseProgram(benchM1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFederationQuery runs an optimized mixed query over a randomized
// federation through the entire stack (rewriter, estimator, CIM, engine).
func BenchmarkFederationQuery(b *testing.B) {
	store, rel := workload.Federation(workload.DefaultFederation())
	sys := core.NewSystem(core.Options{})
	sys.Register(store)
	sys.Register(rel)
	if err := sys.LoadProgram(`
		objs(V, F, L, O) :- in(O, avis:frames_to_objects(V, F, L)).
		row(T, K, V) :- in(P, rel:all(T)), =(P.k, K), =(P.v, V).
	`); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sys.QueryAll("?- objs('video01', 10, 90, O) & row('table01', K, V) & V > 500."); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelFanout measures the real-time overhead of the parallel
// operator pipeline on a 4-way independent-subgoal query: spool producers,
// the scheduler, and the vtime-deterministic merge all run for every
// iteration (the virtual clock makes the simulated latencies free, so the
// benchmark isolates the machinery itself).
func BenchmarkParallelFanout(b *testing.B) {
	d := domaintest.New("d")
	for _, fn := range []string{"s1", "s2", "s3", "s4"} {
		d.Define(fn, domaintest.Func{Arity: 0, PerCall: 50 * time.Millisecond,
			Fn: func([]term.Value) ([]term.Value, error) {
				out := make([]term.Value, 8)
				for i := range out {
					out[i] = term.Int(int64(i))
				}
				return out, nil
			}})
	}
	reg := domain.NewRegistry()
	reg.Register(d)
	eng := engine.New(reg, nil, engine.Config{}, nil, nil, nil)
	prog, _ := lang.ParseProgram(
		`f(A, B, C, D) :- in(A, d:s1()) & in(B, d:s2()) & in(C, d:s3()) & in(D, d:s4()).`)
	q, _ := lang.ParseQuery("?- f(A, B, C, D).")
	rw := rewrite.New(prog, rewrite.Config{}, reg)
	plans, err := rw.Plans(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := domain.NewCtx(vclock.NewVirtual(0))
		ctx.Sched = domain.NewSched(4)
		cur, err := eng.ExecutePlan(ctx, plans[0])
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := engine.CollectAll(cur); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineJoin runs a two-literal nested-loop join at two sizes, 64
// and 64×64 answers, so the engine's per-tuple cost — one binding per
// literal per answer — shows in ns/op, B/op and allocs/op.
func BenchmarkEngineJoin(b *testing.B) {
	d := domaintest.New("d")
	d.Define("gen", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			out := make([]term.Value, 64)
			for i := range out {
				out[i] = term.Int(int64(i))
			}
			return out, nil
		}})
	d.Define("next", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(int64(args[0].(term.Int)) + 1)}, nil
		}})
	reg := domain.NewRegistry()
	reg.Register(d)
	eng := engine.New(reg, nil, engine.Config{}, nil, nil, nil)
	prog, _ := lang.ParseProgram(`
		v(X, Y) :- in(X, d:gen()), in(Y, d:next(X)).
		w(X, Y) :- in(X, d:gen()), in(Y, d:gen()).
	`)
	rw := rewrite.New(prog, rewrite.Config{}, reg)
	for _, size := range []struct{ name, query string }{
		{"answers=64", "?- v(X, Y)."},
		{"answers=4096", "?- w(X, Y)."},
	} {
		q, _ := lang.ParseQuery(size.query)
		plans, err := rw.Plans(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(size.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cur, err := eng.ExecutePlan(domain.NewCtx(vclock.NewVirtual(0)), plans[0])
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := engine.CollectAll(cur); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

var explainSink string

// BenchmarkSpanTreeExplain is what tracing one query costs: build a
// 10-span tagged tree, end it, snapshot it twice (the flight recorder and
// the reply's EXPLAIN each take one) and render it.
func BenchmarkSpanTreeExplain(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		root := obs.NewSpan("?- q(X).", 0)
		for c := 0; c < 3; c++ {
			call := root.Child("call d:f(1)", time.Millisecond)
			call.SetTag("route", "cim")
			call.SetTag("cim", "exact")
			call.SetEstimate(obs.Cost{TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 3})
			for l := 0; l < 2; l++ {
				leaf := call.Child("fetch", time.Millisecond)
				leaf.SetTag("n", "1")
				leaf.End(2 * time.Millisecond)
			}
			call.SetActual(obs.Cost{TFirst: time.Millisecond, TAll: 3 * time.Millisecond, Card: 3})
			call.End(3 * time.Millisecond)
		}
		root.SetTag("answers", "9")
		root.SetTag("complete", "true")
		root.SetActual(obs.Cost{TFirst: time.Millisecond, TAll: 4 * time.Millisecond, Card: 9})
		root.End(4 * time.Millisecond)
		root.Snapshot()
		explainSink = obs.Explain(root.Snapshot())
	}
}
