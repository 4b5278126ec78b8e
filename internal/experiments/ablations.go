package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/faultinject"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// --- Ablation 1: summarization granularity -------------------------------

// SummarizationRow reports one statistics configuration of the
// summarization ablation: its storage footprint, its mean estimation error
// over a probe workload, and the mean estimation latency.
type SummarizationRow struct {
	Config      string
	RawRecords  int
	SummaryRows int
	// MeanAbsErrTa is mean |predicted Ta − actual Ta| / actual Ta over the
	// probe calls.
	MeanAbsErrTa float64
	// MeanLookup is the mean wall-clock latency of one Cost() call.
	MeanLookup time.Duration
	// Failures counts probes with no estimate at all.
	Failures int
}

// AblationSummarization compares four statistics configurations over the
// same training data and probe workload: the full cost vector database
// (raw aggregation), lossless summary tables only, analysis-driven lossy
// tables (drop positions that can never be plan-time constants), and fully
// lossy single-row tables.
func AblationSummarization() ([]SummarizationRow, error) {
	tb, err := NewTestbed(TestbedOptions{Site: SiteUSA, DisableCIM: true})
	if err != nil {
		return nil, err
	}
	if err := tb.WarmConnections(); err != nil {
		return nil, err
	}
	if err := tb.Sys.WarmStatistics(trainingCalls(1996)); err != nil {
		return nil, err
	}

	// Probe workload: rope-range queries at workload scale, plus cast
	// selections; ground truth = actually running the call now.
	rng := rand.New(rand.NewSource(7))
	var probes []domain.Call
	for i := 0; i < 12; i++ {
		f := rng.Intn(100)
		l := f + 10 + rng.Intn(60)
		if l > 159 {
			l = 159
		}
		probes = append(probes, domain.Call{Domain: "avis", Function: "frames_to_objects",
			Args: []term.Value{term.Str("rope"), term.Int(int64(f)), term.Int(int64(l))}})
	}
	for _, role := range []string{"rupert cadell", "janet walker", "grip"} {
		probes = append(probes, domain.Call{Domain: "ingres", Function: "equal",
			Args: []term.Value{term.Str("cast"), term.Str("role"), term.Str(role)}})
	}
	truth := make([]time.Duration, len(probes))
	for i, c := range probes {
		ctx := tb.Sys.Ctx()
		t0 := ctx.Clock.Now()
		s, err := tb.Sys.Registry.Call(ctx, c)
		if err != nil {
			return nil, err
		}
		if _, err := domain.Collect(s); err != nil {
			return nil, err
		}
		truth[i] = ctx.Clock.Now() - t0
	}

	groups := fig6FunctionGroups
	mkDB := func(raw bool) *dcsm.DB {
		db := dcsm.New(dcsm.Config{AllowRawAggregation: raw}, nil)
		replayRecords(tb.Sys.DCSM, db)
		return db
	}
	type cfg struct {
		name  string
		build func() (*dcsm.DB, error)
		// dropRaw removes raw detail after summarizing.
		dropRaw bool
	}
	cfgs := []cfg{
		{name: "raw cost vector DB", build: func() (*dcsm.DB, error) { return mkDB(true), nil }},
		{name: "lossless tables", dropRaw: true, build: func() (*dcsm.DB, error) {
			db := mkDB(false)
			for _, g := range groups {
				if _, err := db.SummarizeLossless(g.dom, g.fn, g.arity); err != nil {
					return nil, err
				}
				if _, err := db.SummarizeFullyLossy(g.dom, g.fn, g.arity); err != nil {
					return nil, err
				}
			}
			return db, nil
		}},
		{name: "analysis-driven lossy", dropRaw: true, build: func() (*dcsm.DB, error) {
			db := mkDB(false)
			// Keep only the first argument (video / table name): the deeper
			// positions are runtime values in the hidden predicates.
			for _, g := range groups {
				dims := []int{}
				if g.arity > 0 {
					dims = []int{0}
				}
				if _, err := db.Summarize(g.dom, g.fn, g.arity, dims); err != nil {
					return nil, err
				}
				if _, err := db.SummarizeFullyLossy(g.dom, g.fn, g.arity); err != nil {
					return nil, err
				}
			}
			return db, nil
		}},
		{name: "fully lossy", dropRaw: true, build: func() (*dcsm.DB, error) {
			db := mkDB(false)
			for _, g := range groups {
				if _, err := db.SummarizeFullyLossy(g.dom, g.fn, g.arity); err != nil {
					return nil, err
				}
			}
			return db, nil
		}},
	}
	var rows []SummarizationRow
	for _, c := range cfgs {
		db, err := c.build()
		if err != nil {
			return nil, err
		}
		if c.dropRaw {
			for _, g := range groups {
				db.DropDetail(g.dom, g.fn, g.arity)
			}
		}
		row := SummarizationRow{Config: c.name}
		st := db.Storage()
		row.RawRecords, row.SummaryRows = st.RawRecords, st.SummaryRows
		var errSum float64
		n := 0
		t0 := time.Now()
		lookups := 0
		for i, p := range probes {
			cv, err := db.Cost(domain.PatternOf(p))
			lookups++
			if err != nil {
				row.Failures++
				continue
			}
			e := math.Abs(float64(cv.TAll-truth[i])) / float64(truth[i])
			errSum += e
			n++
		}
		if lookups > 0 {
			row.MeanLookup = time.Since(t0) / time.Duration(lookups)
		}
		if n > 0 {
			row.MeanAbsErrTa = errSum / float64(n)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatSummarization renders the summarization ablation.
func FormatSummarization(rows []SummarizationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %8s %8s %12s %12s %8s\n",
		"Config", "raw", "sumrows", "meanErr(Ta)", "lookup", "fails")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-22s %8d %8d %11.1f%% %12s %8d\n",
			r.Config, r.RawRecords, r.SummaryRows, r.MeanAbsErrTa*100, r.MeanLookup, r.Failures)
	}
	return b.String()
}

// --- Ablation 2: recency weighting ---------------------------------------

// RecencyRow compares plain vs recency-weighted averaging under drifting
// network load.
type RecencyRow struct {
	Config string
	// PredTa is the estimate for the probe call after the drift.
	PredTa time.Duration
	// ActualTa is the probe's true post-drift cost.
	ActualTa time.Duration
	ErrPct   float64
}

// AblationRecency trains statistics before and after a 3x network slowdown
// and asks both configurations for a post-drift estimate: the paper's
// "giving precedence to more recent statistics" extension.
func AblationRecency() ([]RecencyRow, error) {
	drift := func(t time.Duration) float64 {
		if t >= 30*time.Minute {
			return 3
		}
		return 1
	}
	build := func(half time.Duration) (*dcsm.DB, time.Duration, error) {
		tb, err := NewTestbed(TestbedOptions{
			Site:       SiteUSA,
			DisableCIM: true,
			Load:       drift,
			Core:       core.Options{DCSM: &dcsm.Config{AllowRawAggregation: true, RecencyHalfLife: half}},
		})
		if err != nil {
			return nil, 0, err
		}
		if err := tb.WarmConnections(); err != nil {
			return nil, 0, err
		}
		probe := domain.Call{Domain: "avis", Function: "frames_to_objects",
			Args: []term.Value{term.Str("rope"), term.Int(4), term.Int(47)}}
		run := func() (time.Duration, error) {
			ctx := tb.Sys.Ctx()
			t0 := ctx.Clock.Now()
			s, err := tb.Sys.Registry.Call(ctx, probe)
			if err != nil {
				return 0, err
			}
			if _, err := domain.Collect(s); err != nil {
				return 0, err
			}
			return ctx.Clock.Now() - t0, nil
		}
		// Pre-drift training: 10 observations at nominal load.
		for i := 0; i < 10; i++ {
			if err := tb.Sys.WarmStatistics([]domain.Call{probe}); err != nil {
				return nil, 0, err
			}
		}
		// Cross the drift boundary.
		tb.Sys.Clock.Sleep(time.Hour - tb.Sys.Clock.Now())
		// Post-drift: only 3 observations (recent conditions are
		// under-represented, which is what recency weighting corrects).
		for i := 0; i < 3; i++ {
			if err := tb.Sys.WarmStatistics([]domain.Call{probe}); err != nil {
				return nil, 0, err
			}
		}
		actual, err := run()
		if err != nil {
			return nil, 0, err
		}
		return tb.Sys.DCSM, actual, nil
	}

	var rows []RecencyRow
	for _, c := range []struct {
		name string
		half time.Duration
	}{
		{"plain averaging", 0},
		{"recency half-life 10m", 10 * time.Minute},
	} {
		db, actual, err := build(c.half)
		if err != nil {
			return nil, err
		}
		cv, err := db.Cost(domain.Pattern{Domain: "avis", Function: "frames_to_objects",
			Args: []domain.PatternArg{
				domain.Const(term.Str("rope")), domain.Const(term.Int(4)), domain.Const(term.Int(47)),
			}})
		if err != nil {
			return nil, err
		}
		rows = append(rows, RecencyRow{
			Config:   c.name,
			PredTa:   cv.TAll,
			ActualTa: actual,
			ErrPct:   math.Abs(float64(cv.TAll-actual)) / float64(actual) * 100,
		})
	}
	return rows, nil
}

// FormatRecency renders the recency ablation.
func FormatRecency(rows []RecencyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-24s %12s %12s %8s\n", "Config", "predicted", "actual", "err")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %10sms %10sms %7.1f%%\n",
			r.Config, vclock.Millis(r.PredTa), vclock.Millis(r.ActualTa), r.ErrPct)
	}
	return b.String()
}

// --- Ablation 3: cache eviction policy -----------------------------------

// CachePolicyRow reports one eviction policy's behaviour on a constrained
// cache under a skewed workload.
type CachePolicyRow struct {
	Policy    string
	Hits      int
	Misses    int
	TotalTime time.Duration
}

// AblationCachePolicy runs a skewed stream of AVIS calls against a
// size-constrained CIM under LRU vs cost-weighted eviction: the
// cost-weighted policy retains the expensive wide-range calls.
func AblationCachePolicy() ([]CachePolicyRow, error) {
	mkWorkload := func() []domain.Call {
		rng := rand.New(rand.NewSource(3))
		// Two expensive wide calls recur; many cheap narrow calls churn the
		// cache between their occurrences.
		wide := []domain.Call{
			{Domain: "avis", Function: "frames_to_objects",
				Args: []term.Value{term.Str("rope"), term.Int(0), term.Int(159)}},
			{Domain: "avis", Function: "frames_to_objects",
				Args: []term.Value{term.Str("newsreel"), term.Int(0), term.Int(1100)}},
		}
		var calls []domain.Call
		for i := 0; i < 60; i++ {
			if i%6 == 0 {
				calls = append(calls, wide[i/6%2])
				continue
			}
			f := rng.Intn(140)
			calls = append(calls, domain.Call{Domain: "avis", Function: "frames_to_objects",
				Args: []term.Value{term.Str("rope"), term.Int(int64(f)), term.Int(int64(f + 3))}})
		}
		return calls
	}
	var rows []CachePolicyRow
	for _, pol := range []struct {
		name   string
		policy cim.EvictionPolicy
	}{
		{"LRU", cim.EvictLRU},
		{"cost-weighted", cim.EvictCostWeighted},
	} {
		ccfg := paperCIMConfig()
		ccfg.MaxEntries = 6
		ccfg.Policy = pol.policy
		tb, err := NewTestbed(TestbedOptions{Site: SiteUSA, RouteViaCIM: true, Core: core.Options{CIM: &ccfg}})
		if err != nil {
			return nil, err
		}
		ctx := tb.Sys.Ctx()
		for _, c := range mkWorkload() {
			resp, err := tb.Sys.CIM.CallThrough(ctx, c)
			if err != nil {
				return nil, err
			}
			if _, err := domain.Collect(resp.Stream); err != nil {
				return nil, err
			}
		}
		st := tb.Sys.CIM.Stats()
		rows = append(rows, CachePolicyRow{
			Policy:    pol.name,
			Hits:      st.ExactHits,
			Misses:    st.Misses,
			TotalTime: ctx.Clock.Now(),
		})
	}
	return rows, nil
}

// FormatCachePolicy renders the eviction ablation.
func FormatCachePolicy(rows []CachePolicyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-16s %6s %6s %12s\n", "Policy", "hits", "miss", "total time")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %6d %6d %10sms\n", r.Policy, r.Hits, r.Misses, vclock.Millis(r.TotalTime))
	}
	return b.String()
}

// --- Ablation 4: parallel vs serial partial answers -----------------------

// ParallelPartialRow compares the two §4.1 strategies for completing a
// partial-invariant hit.
type ParallelPartialRow struct {
	Strategy string
	TFirst   time.Duration
	TAll     time.Duration
}

// AblationParallelPartial measures the objects(4..127) query with a cached
// sub-range, completing the answers serially vs in parallel with the
// cached serve.
func AblationParallelPartial() ([]ParallelPartialRow, error) {
	var rows []ParallelPartialRow
	for _, par := range []bool{false, true} {
		ccfg := paperCIMConfig()
		ccfg.ParallelActual = par
		tb, err := NewTestbed(TestbedOptions{
			Site: SiteUSA, RouteViaCIM: true, WithInvariants: true, Core: core.Options{CIM: &ccfg},
		})
		if err != nil {
			return nil, err
		}
		if err := tb.Sys.PrimeCache([]domain.Call{
			{Domain: "avis", Function: "frames_to_objects",
				Args: []term.Value{term.Str("rope"), term.Int(4), term.Int(90)}},
		}); err != nil {
			return nil, err
		}
		tb.ResetConnections()
		tb.Sys.Clock = vclock.NewVirtual(0)
		plan, err := originalOrderPlan(tb.Sys, "?- in(Object, avis:frames_to_objects('rope', 4, 127)).")
		if err != nil {
			return nil, err
		}
		_, m, err := runPlan(tb.Sys, plan)
		if err != nil {
			return nil, err
		}
		name := "serial"
		if par {
			name = "parallel"
		}
		rows = append(rows, ParallelPartialRow{Strategy: name, TFirst: m.TFirst, TAll: m.TAll})
	}
	return rows, nil
}

// FormatParallelPartial renders the parallel-partial ablation.
func FormatParallelPartial(rows []ParallelPartialRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "Strategy", "T_first", "T_all")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10sms %10sms\n", r.Strategy, vclock.Millis(r.TFirst), vclock.Millis(r.TAll))
	}
	return b.String()
}

// --- availability demonstration ------------------------------------------

// AvailabilityRow shows the cache answering during a source outage.
type AvailabilityRow struct {
	Phase   string
	Answers int
	Err     string
}

// Availability demonstrates the §1 claim that cached results let the
// mediator answer when the source is temporarily unavailable: the same
// query before, during (cold cache), and during an outage with a warm
// cache.
func Availability() ([]AvailabilityRow, error) {
	outage := faultinject.Window{From: 1 * time.Hour, To: 2 * time.Hour}
	query := "?- in(Object, avis:frames_to_objects('rope', 4, 47))."
	var rows []AvailabilityRow

	run := func(phase string, prime bool, at time.Duration) error {
		tb2, err := NewTestbed(TestbedOptions{Site: SiteUSA, RouteViaCIM: true, WithInvariants: true,
			Faults: &faultinject.Config{Windows: []faultinject.Window{outage}}})
		if err != nil {
			return err
		}
		if prime {
			if err := tb2.Sys.PrimeCache([]domain.Call{
				{Domain: "avis", Function: "frames_to_objects",
					Args: []term.Value{term.Str("rope"), term.Int(4), term.Int(47)}},
			}); err != nil {
				return err
			}
		}
		tb2.Sys.Clock = vclock.NewVirtual(at)
		plan, err := originalOrderPlan(tb2.Sys, query)
		if err != nil {
			return err
		}
		answers, _, err := runPlan(tb2.Sys, plan)
		row := AvailabilityRow{Phase: phase, Answers: len(answers)}
		if err != nil {
			row.Err = err.Error()
		}
		rows = append(rows, row)
		return nil
	}
	if err := run("before outage, cold cache", false, 0); err != nil {
		return nil, err
	}
	if err := run("during outage, cold cache", false, 90*time.Minute); err != nil {
		return nil, err
	}
	if err := run("during outage, warm cache", true, 90*time.Minute); err != nil {
		return nil, err
	}
	return rows, nil
}

// FormatAvailability renders the availability demonstration.
func FormatAvailability(rows []AvailabilityRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-28s %8s %s\n", "Phase", "answers", "error")
	for _, r := range rows {
		e := r.Err
		if e == "" {
			e = "-"
		}
		fmt.Fprintf(&b, "%-28s %8d %s\n", r.Phase, r.Answers, e)
	}
	return b.String()
}
