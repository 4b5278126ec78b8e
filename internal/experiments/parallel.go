package experiments

import (
	"fmt"
	"strings"
	"time"

	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/domains/avis"
	"hermes/internal/engine"
	"hermes/internal/netsim"
	"hermes/internal/term"
)

// The parallel speedup experiment measures what the operator pipeline's
// intra-query parallelism buys on the netsim federation: a query with four
// independent remote subgoals (the engine prefetches the siblings
// concurrently) and a four-rule union predicate (the engine runs the
// alternatives as a parallel union), each timed on the deterministic
// virtual clock at Parallelism 1, 2, 4 and 8. The WAN profile is
// jitter-free so the four branches are exactly balanced and the numbers
// are reproducible bit-for-bit.

// wanFlat is a deterministic wide-area profile: no jitter, so every branch
// of the fanout pays the same latency and speedups are exact.
var wanFlat = netsim.Profile{
	Name:        "wan-flat",
	Connect:     500 * time.Millisecond,
	RTT:         400 * time.Millisecond,
	PerTuple:    60 * time.Millisecond,
	BytesPerSec: 256 * 1024,
}

// parallelProgram: fanout has four independent in() subgoals (ground args,
// distinct fresh outputs); union4 is one predicate with four alternative
// rules, each a single remote call.
const parallelProgram = `
	fanout(A, B, C, D) :-
	    in(A, avis:video_size('v1')) &
	    in(B, avis:video_size('v2')) &
	    in(C, avis:video_size('v3')) &
	    in(D, avis:video_size('v4')).

	union4(S) :- in(S, avis:video_size('v1')).
	union4(S) :- in(S, avis:video_size('v2')).
	union4(S) :- in(S, avis:video_size('v3')).
	union4(S) :- in(S, avis:video_size('v4')).
`

// ParallelPoint is one Parallelism setting's measurements.
type ParallelPoint struct {
	Parallelism int `json:"parallelism"`
	// FanoutTAllMs is the virtual all-answers time of the 4-way
	// independent-subgoal query; FanoutSpeedup is TAll(P=1)/TAll(P).
	FanoutTAllMs  float64 `json:"fanout_tall_ms"`
	FanoutSpeedup float64 `json:"fanout_speedup"`
	// UnionTAllMs / UnionSpeedup are the same for the 4-rule union query.
	UnionTAllMs  float64 `json:"union_tall_ms"`
	UnionSpeedup float64 `json:"union_speedup"`
}

// ParallelResult is the whole experiment, serialized to
// BENCH_parallel.json by benchrunner -fig parallel.
type ParallelResult struct {
	FanoutQuery string          `json:"fanout_query"`
	UnionQuery  string          `json:"union_query"`
	Site        string          `json:"site"`
	Points      []ParallelPoint `json:"points"`
}

// fourVideoSource is parallelProgram's federation: four single-answer
// videos behind the flat WAN profile.
func fourVideoSource() domain.Domain {
	store := avis.New("avis")
	for i, size := range []int{900, 910, 920, 930} {
		store.MustAddVideo(fmt.Sprintf("v%d", i+1), 100, size, nil)
	}
	return netsim.Wrap(store, wanFlat)
}

// fourVideoSystem wires a fresh mediator over src — fourVideoSource(),
// possibly wrapped — without a CIM: the parallel and admission experiments
// measure the pipeline and the scheduler tier, not the cache. The
// persistent connection is established before returning, so no timed query
// pays the one-time Connect charge and forked sessions start from
// identical warm clocks.
func fourVideoSystem(opts core.Options, src domain.Domain) (*core.System, error) {
	opts.DisableCIM = true
	sys := core.NewSystem(paperProfile(opts))
	sys.Register(src)
	if err := sys.LoadProgram(parallelProgram); err != nil {
		return nil, err
	}
	s, err := sys.Registry.Call(sys.Ctx(), domain.Call{
		Domain: "avis", Function: "video_size", Args: []term.Value{term.Str("v1")},
	})
	if err != nil {
		return nil, err
	}
	if _, err := domain.Collect(s); err != nil {
		return nil, err
	}
	return sys, nil
}

// ParallelSpeedup times the fanout and union queries at Parallelism
// 1, 2, 4 and 8.
func ParallelSpeedup() (*ParallelResult, error) {
	res := &ParallelResult{
		FanoutQuery: "?- fanout(A, B, C, D).",
		UnionQuery:  "?- union4(S).",
		Site:        wanFlat.Name,
	}
	var base ParallelPoint
	for _, par := range []int{1, 2, 4, 8} {
		sys, err := fourVideoSystem(core.Options{Parallelism: par}, fourVideoSource())
		if err != nil {
			return nil, err
		}
		runQ := func(q string) (engine.Metrics, error) {
			_, m, err := sys.QueryAll(q)
			return m, err
		}
		fm, err := runQ(res.FanoutQuery)
		if err != nil {
			return nil, fmt.Errorf("experiments: parallel fanout at P=%d: %w", par, err)
		}
		um, err := runQ(res.UnionQuery)
		if err != nil {
			return nil, fmt.Errorf("experiments: parallel union at P=%d: %w", par, err)
		}
		pt := ParallelPoint{
			Parallelism:  par,
			FanoutTAllMs: float64(fm.TAll) / float64(time.Millisecond),
			UnionTAllMs:  float64(um.TAll) / float64(time.Millisecond),
		}
		if par == 1 {
			base = pt
		}
		pt.FanoutSpeedup = round2(base.FanoutTAllMs / pt.FanoutTAllMs)
		pt.UnionSpeedup = round2(base.UnionTAllMs / pt.UnionTAllMs)
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func round2(f float64) float64 {
	return float64(int(f*100+0.5)) / 100
}

// FormatParallel renders the speedup table.
func FormatParallel(res *ParallelResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %14s %9s %14s %9s\n", "parallelism", "fanout Tall", "speedup", "union Tall", "speedup")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%-12d %12.0fms %8.2fx %12.0fms %8.2fx\n",
			p.Parallelism, p.FanoutTAllMs, p.FanoutSpeedup, p.UnionTAllMs, p.UnionSpeedup)
	}
	return b.String()
}
