package core

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/engine"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// sumSavedTags walks a span tree adding up every cim.saved_ms tag.
func sumSavedTags(d obs.SpanData, t *testing.T) float64 {
	t.Helper()
	total := 0.0
	if v, ok := d.Tags.Lookup("cim.saved_ms"); ok {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			t.Fatalf("bad cim.saved_ms tag %q: %v", v, err)
		}
		total += f
	}
	for _, c := range d.Children {
		total += sumSavedTags(c, t)
	}
	return total
}

// TestSavingsLedgerMatchesSpans is the acceptance check for the savings
// ledger: over a workload with exact and equality-invariant hits, the
// per-invariant saved-ms totals must sum to the ledger total, which equals
// hermes_cim_saved_ms_total and the span-level avoided cost tagged on the
// traces. With the memo on, its hits save too, and are counted by the memo
// alone: the CIM's ledger still matches the CIM's counter and tags.
func TestSavingsLedgerMatchesSpans(t *testing.T) {
	for _, memoOn := range []bool{false, true} {
		checkLedgerMatchesSpans(t, memoOn)
	}
}

func checkLedgerMatchesSpans(t *testing.T, memoOn bool) {
	o := obs.NewObserver()
	d := domaintest.New("d")
	answers := func([]term.Value) ([]term.Value, error) {
		return []term.Value{term.Str("a"), term.Str("b")}, nil
	}
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 120 * time.Millisecond, PerAnswer: time.Millisecond, Fn: answers})
	d.Define("g", domaintest.Func{Arity: 1, PerCall: 80 * time.Millisecond, PerAnswer: time.Millisecond, Fn: answers})
	opts := Options{Obs: o}
	if memoOn {
		mcfg := memo.DefaultConfig()
		opts.Memo = &mcfg
	}
	sys := NewSystem(opts)
	sys.Register(d)
	if err := sys.LoadProgram(`
vf(X) :- in(X, d:f(1)).
vg(X) :- in(X, d:g(1)).
true => d:f(A) = d:g(A).
`); err != nil {
		t.Fatal(err)
	}

	for _, q := range []string{
		"?- vf(X).", // miss: fills the cache and the DCSM
		"?- vf(X).", // exact hit: DCSM-priced savings (memo on: a memo hit)
		"?- vg(X).", // equality-invariant hit off f's entry
		"?- vg(X).", // another invariant hit (memo on: a memo hit)
	} {
		cur, err := sys.QueryTraced(q, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.CollectAll(cur); err != nil {
			t.Fatal(err)
		}
	}
	if memoOn && sys.Memo.Stats().Hits == 0 {
		t.Fatal("memo on: no memo hits")
	}

	led := sys.CIM.Ledger()
	if led.Total <= 0 {
		t.Fatalf("memo=%v: no savings recorded", memoOn)
	}
	var invSum time.Duration
	for _, r := range led.Invariants {
		invSum += r.Saved
	}
	if invSum != led.Total {
		t.Fatalf("memo=%v: per-invariant sums %v != ledger total %v", memoOn, invSum, led.Total)
	}
	if v := o.Metrics.Counter("hermes_cim_saved_ms_total").Value(); v != led.Total.Milliseconds() {
		t.Errorf("memo=%v: hermes_cim_saved_ms_total = %d, ledger total %v", memoOn, v, led.Total)
	}

	spanSum := 0.0
	for _, r := range o.Flight.Records() {
		spanSum += sumSavedTags(r.Root, t)
	}
	ledMS := float64(led.Total) / float64(time.Millisecond)
	if math.Abs(spanSum-ledMS) > 1.0 {
		t.Errorf("memo=%v: span-level saved %.2fms, ledger total %.2fms", memoOn, spanSum, ledMS)
	}

	// The equality invariant must appear as its own attribution row.
	invKey := "true => d:f(A) = d:g(A)."
	found := false
	for _, r := range led.Invariants {
		if r.Key == invKey && r.Hits >= 1 && r.Saved > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("memo=%v: no credited row for %q: %+v", memoOn, invKey, led.Invariants)
	}
	if v := o.Metrics.Counter("hermes_cim_invariant_hits_total", "invariant", invKey).Value(); v < 1 {
		t.Errorf("memo=%v: hermes_cim_invariant_hits_total = %d", memoOn, v)
	}
}

// TestPlanChoiceCalibrationTag: the plan-choice span reports whether the
// chosen plan was ranked on trustworthy cost numbers — "cold" before the
// DCSM has evidence, "trusted" once repeated direct calls show the
// estimates track the measurements.
func TestPlanChoiceCalibrationTag(t *testing.T) {
	o := obs.NewObserver()
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 10 * time.Millisecond, PerAnswer: time.Millisecond,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Str("a"), term.Str("b")}, nil
		}})
	// CIM disabled so every run issues a real measured source call.
	sys := NewSystem(Options{Obs: o, DisableCIM: true, Parallelism: 1})
	sys.Register(d)
	if err := sys.LoadProgram(`v(X) :- in(X, d:f(1)).`); err != nil {
		t.Fatal(err)
	}

	planTag := func() string {
		t.Helper()
		cur, err := sys.QueryTraced("?- v(X).", false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.CollectAll(cur); err != nil {
			t.Fatal(err)
		}
		snap := cur.Span().Snapshot()
		for _, c := range snap.Children {
			if c.Name == "plan-choice" {
				return c.Tag("calibration")
			}
		}
		t.Fatalf("no plan-choice span in %+v", snap)
		return ""
	}

	if tag := planTag(); tag != "cold" {
		t.Errorf("first run calibration = %q, want cold", tag)
	}
	// Runs 2..4 carry estimates and feed three calibration points.
	for i := 0; i < 3; i++ {
		planTag()
	}
	if tag := planTag(); tag != "trusted" {
		rows := sys.DCSM.Calibration().Summary()
		t.Errorf("warm calibration = %q, want trusted (rows %+v)", tag, rows)
	}
}

// downableDomain fails every call with a wrapped domain.ErrUnavailable
// while down, mimicking what the resilience layer reports for a dead
// source.
type downableDomain struct {
	domain.Domain
	down bool
}

func (d *downableDomain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	if d.down {
		return nil, fmt.Errorf("retries exhausted: %w", domain.ErrUnavailable)
	}
	return d.Domain.Call(ctx, fn, args)
}

// TestExplainDegradedPartialIntegration drives a real degraded partial
// serve end to end and checks EXPLAIN renders the serving decision:
// cim=partial with the matched invariant, and degraded=true once the
// completing source call fails.
func TestExplainDegradedPartialIntegration(t *testing.T) {
	o := obs.NewObserver()
	d := domaintest.New("src")
	d.Define("range", domaintest.Func{Arity: 2, PerCall: 20 * time.Millisecond, PerAnswer: time.Millisecond,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Str("x"), term.Str("y")}, nil
		}})
	src := &downableDomain{Domain: d}
	sys := NewSystem(Options{Obs: o})
	sys.Register(src)
	if err := sys.LoadProgram(`
r(F, L, X) :- in(X, src:range(F, L)).
F1 <= G1 & G2 <= F2 => src:range(F1, F2) >= src:range(G1, G2).
`); err != nil {
		t.Fatal(err)
	}

	run := func(q string) string {
		t.Helper()
		cur, err := sys.QueryTraced(q, false)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.CollectAll(cur); err != nil {
			t.Fatal(err)
		}
		return obs.Explain(cur.Span().Snapshot())
	}

	run("?- r(10, 20, X).") // prime the narrow range
	src.down = true
	text := run("?- r(0, 90, X).") // partial hit, completion fails, degrades

	for _, want := range []string{
		"cim=partial",
		"invariant=F1 <= G1 & G2 <= F2 => src:range(F1, F2) >= src:range(G1, G2).",
		"serving=src:range(10, 20)",
		"degraded=true",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, text)
		}
	}
	// A degraded partial serve earns hit credit but no savings.
	if led := sys.CIM.Ledger(); led.Total != 0 || len(led.Invariants) == 0 {
		t.Errorf("ledger after degraded partial = %+v", led)
	}
}

// TestLoadedInvariantsListHitSeriesAtZero: after LoadProgram, every loaded
// invariant's hermes_cim_invariant_hits_total series is listed at 0 before
// its first hit, so a scrape answers "which invariant never fires?"; a hit
// moves only its own invariant's series.
func TestLoadedInvariantsListHitSeriesAtZero(t *testing.T) {
	o := obs.NewObserver()
	d := domaintest.New("d")
	answers := func([]term.Value) ([]term.Value, error) {
		return []term.Value{term.Str("a"), term.Str("b")}, nil
	}
	for _, fn := range []string{"f", "g"} {
		d.Define(fn, domaintest.Func{Arity: 1, PerCall: 50 * time.Millisecond, Fn: answers})
	}
	d.Define("r", domaintest.Func{Arity: 2, PerCall: 50 * time.Millisecond, Fn: answers})
	sys := NewSystem(Options{Obs: o})
	sys.Register(d)
	equality, superset := "true => d:f(A) = d:g(A).", "F1 <= G1 & G2 <= F2 => d:r(F1, F2) >= d:r(G1, G2)."
	if err := sys.LoadProgram("vf(X) :- in(X, d:f(1)).\nvg(X) :- in(X, d:g(1)).\n" + equality + "\n" + superset + "\n"); err != nil {
		t.Fatal(err)
	}
	series := func() string {
		var sb strings.Builder
		if err := o.Metrics.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	for _, inv := range []string{equality, superset} {
		if want := fmt.Sprintf("hermes_cim_invariant_hits_total{invariant=%q} 0\n", inv); !strings.Contains(series(), want) {
			t.Errorf("after LoadProgram the scrape lacks %q", want)
		}
	}
	for _, q := range []string{"?- vf(X).", "?- vg(X)."} { // a miss, then an equality hit
		cur, err := sys.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := engine.CollectAll(cur); err != nil {
			t.Fatal(err)
		}
	}
	for inv, want := range map[string]string{equality: "1", superset: "0"} {
		if line := fmt.Sprintf("hermes_cim_invariant_hits_total{invariant=%q} %s\n", inv, want); !strings.Contains(series(), line) {
			t.Errorf("after one equality hit the scrape lacks %q", line)
		}
	}
}

// TestObserverChangesNothing: two systems that differ only in Options.Obs
// run the same stream — misses, exact cache hits, traced and untraced
// queries, an AutoTune and the summary-table hits after it — and end with
// the same DCSM access counts, the same AutoTune decisions and the same
// calibration-inflated plan estimates. Reads that only display or price a
// number (EXPLAIN's estimate, the savings ledger, grading) do not count,
// and the calibration lives in the DCSM, not in the observer.
func TestObserverChangesNothing(t *testing.T) {
	type result struct {
		raw, tuned, hits string
		optimized        domain.CostVector
		planned          domain.CostVector
		inflated         int64
	}
	run := func(o *obs.Observer) result {
		d := domaintest.New("d")
		d.Define("f", domaintest.Func{Arity: 1, PerCall: 10 * time.Millisecond, PerAnswer: 20 * time.Millisecond,
			Fn: func(args []term.Value) ([]term.Value, error) {
				// The answer count, and so Ta, grows with the argument:
				// each new argument's estimate is off, so grading sees
				// q-errors above 1 and inflation moves the plan estimates.
				out := make([]term.Value, args[0].(term.Int))
				for i := range out {
					out[i] = term.Int(int64(i))
				}
				return out, nil
			}})
		dcfg := dcsm.DefaultConfig()
		sys := NewSystem(Options{Obs: o, DCSM: &dcfg, Parallelism: 1, CalInflateQuantile: 0.9})
		sys.Register(d)
		if err := sys.LoadProgram(`v(X, Y) :- in(Y, d:f(X)).`); err != nil {
			t.Fatal(err)
		}
		query := func(i int) {
			t.Helper()
			q := fmt.Sprintf("?- v(%d, Y).", []int{1, 2, 1, 3, 2, 5, 8, 5, 13, 1}[i%10])
			var err error
			if i%2 == 0 {
				_, _, err = sys.QueryAll(q)
			} else {
				var cur *engine.Cursor
				if cur, err = sys.QueryTraced(q, false); err == nil {
					_, _, err = engine.CollectAll(cur)
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 10; i++ {
			query(i)
		}
		var r result
		r.raw = fmt.Sprint(sys.DCSM.RawAggregations())
		created, dropped, err := sys.AutoTuneStatistics(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		r.tuned = fmt.Sprint(created, dropped)
		for i := 10; i < 20; i++ {
			query(i)
		}
		r.hits = fmt.Sprint(sys.DCSM.TableHits(), sys.DCSM.RawAggregations())
		plan, cv, err := sys.Optimize("?- v(21, Y).", false)
		if err != nil {
			t.Fatal(err)
		}
		r.optimized = cv
		if r.planned, err = sys.PlanCost(plan); err != nil {
			t.Fatal(err)
		}
		if sys.CIM.Stats().ExactHits == 0 {
			t.Fatal("the stream served no cache hit")
		}
		r.inflated = sys.inflationApplied.Value()
		return r
	}
	watched, unwatched := run(obs.NewObserver()), run(nil)
	if watched.raw != unwatched.raw {
		t.Errorf("RawAggregations: watched %s, unwatched %s", watched.raw, unwatched.raw)
	}
	if watched.tuned != unwatched.tuned {
		t.Errorf("AutoTune(1, 1) created, dropped: watched %s, unwatched %s", watched.tuned, unwatched.tuned)
	}
	if watched.hits != unwatched.hits {
		t.Errorf("TableHits, RawAggregations after AutoTune: watched %s, unwatched %s", watched.hits, unwatched.hits)
	}
	if watched.optimized != unwatched.optimized || watched.planned != unwatched.planned {
		t.Errorf("plan estimates: watched Optimize %v PlanCost %v, unwatched Optimize %v PlanCost %v",
			watched.optimized, watched.planned, unwatched.optimized, unwatched.planned)
	}
	if watched.inflated != unwatched.inflated || watched.inflated == 0 {
		t.Errorf("inflated plan choices: watched %d, unwatched %d; want equal and nonzero", watched.inflated, unwatched.inflated)
	}
}
