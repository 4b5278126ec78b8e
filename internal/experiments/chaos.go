package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/admission"
	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/engine"
	"hermes/internal/faultinject"
	"hermes/internal/memo"
	"hermes/internal/netsim"
	"hermes/internal/obs"
	"hermes/internal/resilience"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// The chaos/soak harness runs the Figure-5-style workload (cache-primed
// AVIS range and cast queries over a WAN site) while a deterministic fault
// injector degrades the source: transient call errors, latency spikes,
// mid-stream truncation, and two scheduled unavailability windows. It
// exists to prove the resilience layer's three promises under fire:
//
//   - soundness: every returned tuple is a true answer (degraded results
//     are subsets of the fault-free answer sets);
//   - liveness: every query finishes within its deadline, degrading to
//     cached answers instead of hanging on a dead source;
//   - recovery: the failing site's circuit breaker trips during the
//     outages and closes again afterwards.
//
// Everything is seeded, so one seed yields one fault schedule, bit for
// bit, on every run.

// ChaosOptions configure a chaos/soak run.
type ChaosOptions struct {
	// Seed drives netsim jitter, retry jitter, and the fault schedule.
	Seed uint64
	// Rounds is how many times the workload's query set repeats.
	Rounds int
	// ErrorRate, TruncateRate, SpikeRate and SpikeLatency configure the
	// injected per-call faults.
	ErrorRate    float64
	TruncateRate float64
	SpikeRate    float64
	SpikeLatency time.Duration
	// Windows schedules source outages. Empty = auto-schedule two windows
	// inside the soak span (derived from the fault-free pass).
	Windows []faultinject.Window
	// QueryDeadline is each query's execution-clock budget.
	QueryDeadline time.Duration
	// Site is the network profile of the AVIS source.
	Site netsim.Profile
}

// DefaultChaosOptions is the acceptance configuration: 20% injected call
// failures, two outage windows, a 90 s per-query deadline.
func DefaultChaosOptions() ChaosOptions {
	return ChaosOptions{
		Seed:          11,
		Rounds:        12,
		ErrorRate:     0.20,
		TruncateRate:  0.10,
		SpikeRate:     0.05,
		SpikeLatency:  2 * time.Second,
		QueryDeadline: 90 * time.Second,
		Site:          SiteUSA,
	}
}

// ChaosPolicy is the resilience policy the chaos runs apply to every
// source: three attempts with sub-second decorrelated backoff and a
// breaker that trips after three straight failures and probes again after
// 5 s.
func ChaosPolicy(seed uint64) resilience.Policy {
	return resilience.Policy{
		MaxAttempts: 3,
		BackoffBase: 80 * time.Millisecond,
		BackoffCap:  800 * time.Millisecond,
		Seed:        seed,
		Breaker: resilience.BreakerConfig{
			FailureThreshold:  3,
			OpenTimeout:       5 * time.Second,
			HalfOpenSuccesses: 1,
		},
	}
}

// ChaosQueryResult is one query execution of a chaos pass.
type ChaosQueryResult struct {
	Round int
	Query string
	// TAll is the query's metrics.TAll (bounded by the deadline on a
	// passing run).
	TAll time.Duration
	// AnswerKeys is the sorted canonical encoding of the answer set.
	AnswerKeys []string
	// Err is the query error, "" on success.
	Err string
}

// ChaosReport is everything one pass observed.
type ChaosReport struct {
	Queries []ChaosQueryResult
	// Windows are the outage windows in force (nil for the truth pass).
	Windows []faultinject.Window
	// FaultLog is the injector's event log (nil for the truth pass).
	FaultLog []string
	// Breaker is the AVIS breaker's metrics; BreakerFinal its state at
	// the end of the soak.
	Breaker      resilience.BreakerMetrics
	BreakerFinal resilience.BreakerState
	// Wrapper is the AVIS resilience wrapper's counters.
	Wrapper resilience.Metrics
	// CIM is the cache's counters (degraded serves live here).
	CIM cim.Stats
	// SoakClock is the execution-clock reading at the end of the pass.
	SoakClock time.Duration
}

// chaosWorkload is the Fig-5-style query sequence: the cast query (primed
// through a subset invariant, complete in cache after round one) and a
// drifting frame-range query whose every instance contains the primed
// [30, 100] range, so the cache always holds a sound partial answer to
// degrade to.
func chaosWorkload(rounds int) []string {
	var qs []string
	for r := 0; r < rounds; r++ {
		qs = append(qs, "?- actors(Actor).")
		a := (r * 3) % 30
		b := 110 + (r*7)%50
		qs = append(qs, fmt.Sprintf("?- in(Object, avis:frames_to_objects('rope', %d, %d)).", a, b))
	}
	return qs
}

// chaosPrime warms the cache the way the paper's earlier queries would
// have: a narrow frame range and a cast range, both reusable through the
// subset invariants.
func chaosPrime(tb *Testbed) error {
	return tb.Sys.PrimeCache([]domain.Call{
		avisCall("frames_to_objects", term.Str("rope"), term.Int(30), term.Int(100)),
		avisCall("actors_in_range", term.Str("rope"), term.Int(30), term.Int(130)),
	})
}

// runChaosPass primes and soaks one testbed. faults=nil is the truth
// pass: identical workload, no injector.
func runChaosPass(opts ChaosOptions, faults *faultinject.Config) (*ChaosReport, error) {
	policy := ChaosPolicy(opts.Seed)
	tb, err := NewTestbed(TestbedOptions{
		Site:           opts.Site,
		WithInvariants: true,
		RouteViaCIM:    true,
		Seed:           opts.Seed,
		Faults:         faults,
		Core:           core.Options{Resilience: &policy, QueryDeadline: opts.QueryDeadline},
	})
	if err != nil {
		return nil, err
	}
	if err := chaosPrime(tb); err != nil {
		return nil, fmt.Errorf("chaos: prime: %w", err)
	}
	report := &ChaosReport{}
	queries := chaosWorkload(opts.Rounds)
	for i, q := range queries {
		res := ChaosQueryResult{Round: i / 2, Query: q}
		plan, err := originalOrderPlan(tb.Sys, q)
		if err != nil {
			return nil, fmt.Errorf("chaos: plan %s: %w", q, err)
		}
		cur, err := tb.Sys.Execute(plan)
		if err != nil {
			res.Err = err.Error()
		} else {
			answers, metrics, err := engine.CollectAll(cur)
			if err != nil {
				res.Err = err.Error()
			}
			res.TAll = metrics.TAll
			res.AnswerKeys = answerKeys(answers)
		}
		report.Queries = append(report.Queries, res)
	}
	if tb.Faults != nil {
		report.FaultLog = tb.Faults.EventLog()
		report.Windows = faults.Windows
	}
	if w, ok := tb.Sys.Resilience("avis"); ok {
		report.Wrapper = w.Metrics()
		report.Breaker = w.Breaker().Metrics()
		report.BreakerFinal = w.Breaker().State(tb.Sys.Clock.Now())
	}
	if tb.Sys.CIM != nil {
		report.CIM = tb.Sys.CIM.Stats()
	}
	report.SoakClock = tb.Sys.Clock.Now()
	return report, nil
}

// RunChaos executes the fault-free truth pass, schedules the outage
// windows inside the observed soak span (unless explicitly given), and
// runs the faulted pass. Both passes execute the identical workload.
func RunChaos(opts ChaosOptions) (truth, faulted *ChaosReport, err error) {
	truth, err = runChaosPass(opts, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: truth pass: %w", err)
	}
	windows := opts.Windows
	if len(windows) == 0 {
		// Two outages inside the soak: the faulted pass runs slower than
		// the truth pass (retries, spikes, backoff), so windows placed in
		// the truth span land comfortably inside the faulted span.
		t := truth.SoakClock
		windows = []faultinject.Window{
			{From: t * 25 / 100, To: t * 40 / 100},
			{From: t * 60 / 100, To: t * 72 / 100},
		}
	}
	cfg := &faultinject.Config{
		Seed:         opts.Seed,
		ErrorRate:    opts.ErrorRate,
		FailLatency:  60 * time.Millisecond,
		SpikeRate:    opts.SpikeRate,
		SpikeLatency: opts.SpikeLatency,
		TruncateRate: opts.TruncateRate,
		Windows:      windows,
	}
	faulted, err = runChaosPass(opts, cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("chaos: faulted pass: %w", err)
	}
	return truth, faulted, nil
}

// answerKeys canonicalizes an answer set for comparison.
func answerKeys(answers []engine.Answer) []string {
	keys := make([]string, 0, len(answers))
	for _, a := range answers {
		parts := make([]string, len(a.Vals))
		for i, v := range a.Vals {
			parts[i] = v.Key()
		}
		keys = append(keys, strings.Join(parts, "|"))
	}
	sort.Strings(keys)
	// Answer sets are sets: collapse duplicates so subset comparisons
	// are insensitive to delivery order and multiplicity.
	out := keys[:0]
	for i, k := range keys {
		if i == 0 || keys[i-1] != k {
			out = append(out, k)
		}
	}
	return out
}

// FormatChaos renders a chaos report for the experiment CLI.
func FormatChaos(truth, faulted *ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos soak: %d queries, %d faults injected, soak clock %sms (truth %sms)\n",
		len(faulted.Queries), len(faulted.FaultLog), vclock.Millis(faulted.SoakClock), vclock.Millis(truth.SoakClock))
	for _, w := range faulted.Windows {
		fmt.Fprintf(&b, "  outage window %sms..%sms\n", vclock.Millis(w.From), vclock.Millis(w.To))
	}
	full, degraded, failed := 0, 0, 0
	for i, q := range faulted.Queries {
		switch {
		case q.Err != "":
			failed++
		case len(q.AnswerKeys) == len(truth.Queries[i].AnswerKeys):
			full++
		default:
			degraded++
		}
	}
	fmt.Fprintf(&b, "  queries: %d full, %d degraded, %d failed\n", full, degraded, failed)
	fmt.Fprintf(&b, "  wrapper: %+v\n", faulted.Wrapper)
	fmt.Fprintf(&b, "  breaker: trips=%d probes=%d probe-failures=%d rejections=%d final=%s\n",
		faulted.Breaker.Trips, faulted.Breaker.Probes, faulted.Breaker.ProbeFailures,
		faulted.Breaker.Rejections, faulted.BreakerFinal)
	fmt.Fprintf(&b, "  cim: degraded=%d exact=%d partial=%d\n",
		faulted.CIM.DegradedServes, faulted.CIM.ExactHits, faulted.CIM.PartialHits)
	return b.String()
}

// ChaosConcurrentReport is what the K-session soak observed.
type ChaosConcurrentReport struct {
	// Sessions and MaxInflight echo the configuration.
	Sessions    int
	MaxInflight int
	// Completed counts queries collected to the end; Stopped counts
	// sessions abandoned mid-stream via Session.Stop after one batch.
	Completed int
	Stopped   int
	// PoolPeak is the admission pool's lane high-water mark; GaugePeak the
	// same reading scraped from the observer's gauge. Both must stay
	// within MaxInflight.
	PoolPeak  int
	GaugePeak int
	// Queued and Shed are the pool's waiter counters: under PolicyWait the
	// overflow sessions queue, none shed.
	Queued int64
	Shed   int64
	// FaultEvents is the injector's event count: the soak must actually
	// have been under fire.
	FaultEvents int
	// MemoStats is the rule-level memo cache's counters: the soak runs
	// with the memo enabled so degraded CIM serves flow into memo fills.
	MemoStats memo.Stats
	// MemoEntries counts the memo entries left after the soak;
	// MemoWrongEntries counts those whose relation differs from the one a
	// fault-free mediator memoizes under the same key — which must be
	// zero, always: a relation built from cached-while-down answers is a
	// lower bound, not the answer, and is never stored.
	MemoEntries      int
	MemoWrongEntries int
	// Errors collects per-query failures (empty on a passing run).
	Errors []string
}

// RunChaosConcurrent soaks one mediator under K concurrent query sessions
// while the fault injector degrades the source, with the admission pool
// bounding server-wide source concurrency. Each session holds one
// admission for its whole workload. The first maxInflight sessions are
// admitted up front; the overflow wave then queues on the pool (PolicyWait)
// before the first wave starts executing, so pool contention is a
// certainty, not a race. Every second session abandons its range queries
// after one answer batch via Session.Stop — the mid-stream cancellation
// path must return its lanes too.
//
// Outage windows are omitted: sessions run on forked clocks, so a shared
// wall-clock window has no single meaning; the per-call faults (errors,
// truncation, spikes) carry the chaos.
func RunChaosConcurrent(opts ChaosOptions, sessions, maxInflight int) (*ChaosConcurrentReport, error) {
	policy := ChaosPolicy(opts.Seed)
	o := obs.NewObserver()
	cfg := &faultinject.Config{
		Seed:         opts.Seed,
		ErrorRate:    opts.ErrorRate,
		FailLatency:  60 * time.Millisecond,
		SpikeRate:    opts.SpikeRate,
		SpikeLatency: opts.SpikeLatency,
		TruncateRate: opts.TruncateRate,
	}
	mcfg := memo.DefaultConfig()
	tb, err := NewTestbed(TestbedOptions{
		Site:           opts.Site,
		WithInvariants: true,
		RouteViaCIM:    true,
		Seed:           opts.Seed,
		Faults:         cfg,
		Core: core.Options{
			Resilience:       &policy,
			QueryDeadline:    opts.QueryDeadline,
			Parallelism:      4,
			MaxInflightCalls: maxInflight,
			ShedPolicy:       admission.PolicyWait,
			Obs:              o,
			Memo:             &mcfg,
		},
	})
	if err != nil {
		return nil, err
	}
	if err := chaosPrime(tb); err != nil {
		return nil, fmt.Errorf("chaos: prime: %w", err)
	}

	// Plan the workload once, sequentially; plans are immutable and shared
	// across the sessions.
	queries := chaosWorkload(opts.Rounds)
	plans := make([]*rewrite.Plan, len(queries))
	for i, q := range queries {
		p, err := originalOrderPlan(tb.Sys, q)
		if err != nil {
			return nil, fmt.Errorf("chaos: plan %s: %w", q, err)
		}
		plans[i] = p
	}

	report := &ChaosConcurrentReport{Sessions: sessions, MaxInflight: maxInflight}
	errs := make([][]string, sessions)
	var stopped, completed atomic.Int64

	// One session's workload, run under an already-admitted ctx.
	runSession := func(si int, ctx *domain.Ctx, release func()) {
		defer release()
		for qi, plan := range plans {
			cur, err := tb.Sys.ExecuteCtx(ctx, plan)
			if err != nil {
				errs[si] = append(errs[si], fmt.Sprintf("session %d %s: %v", si, queries[qi], err))
				continue
			}
			// Odd sessions abandon the (multi-answer) range query after
			// one batch: Stop must drain branches and free lanes.
			if si%2 == 1 && qi%2 == 1 {
				sess := engine.NewSession(cur, 1)
				if _, _, err := sess.More(); err != nil {
					errs[si] = append(errs[si], fmt.Sprintf("session %d %s: More: %v", si, queries[qi], err))
				} else if err := sess.Stop(); err != nil {
					errs[si] = append(errs[si], fmt.Sprintf("session %d %s: Stop: %v", si, queries[qi], err))
				} else {
					stopped.Add(1)
				}
				continue
			}
			answers, _, err := engine.CollectAll(cur)
			if err != nil {
				errs[si] = append(errs[si], fmt.Sprintf("session %d %s: collect: %v", si, queries[qi], err))
				continue
			}
			if len(answers) == 0 {
				errs[si] = append(errs[si], fmt.Sprintf("session %d %s: no answers", si, queries[qi]))
				continue
			}
			completed.Add(1)
		}
	}

	// First wave: admitted immediately (the pool has free lanes).
	firstWave := sessions
	if firstWave > maxInflight {
		firstWave = maxInflight
	}
	type admittedSession struct {
		ctx     *domain.Ctx
		release func()
	}
	first := make([]admittedSession, 0, firstWave)
	for si := 0; si < firstWave; si++ {
		ctx, release, err := tb.Sys.AdmitCtx(context.Background(), 1)
		if err != nil {
			return nil, fmt.Errorf("chaos: admit session %d: %w", si, err)
		}
		first = append(first, admittedSession{ctx, release})
	}

	// Overflow wave: their AdmitCtx calls block in the pool's waiter queue
	// until a first-wave session releases. Wait until all of them are
	// queued before letting the first wave run, so the soak always
	// exercises the contended path.
	var wg sync.WaitGroup
	for si := firstWave; si < sessions; si++ {
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			ctx, release, err := tb.Sys.AdmitCtx(context.Background(), 1)
			if err != nil {
				errs[si] = append(errs[si], fmt.Sprintf("session %d admit: %v", si, err))
				return
			}
			runSession(si, ctx, release)
		}(si)
	}
	deadline := time.Now().Add(10 * time.Second)
	for tb.Sys.Admission.Stats().Waiting != sessions-firstWave {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("chaos: overflow wave never queued: %+v", tb.Sys.Admission.Stats())
		}
		time.Sleep(200 * time.Microsecond)
	}
	for si, s := range first {
		wg.Add(1)
		go func(si int, s admittedSession) {
			defer wg.Done()
			runSession(si, s.ctx, s.release)
		}(si, s)
	}
	wg.Wait()

	report.Completed = int(completed.Load())
	report.Stopped = int(stopped.Load())
	for _, e := range errs {
		report.Errors = append(report.Errors, e...)
	}
	st := tb.Sys.Admission.Stats()
	report.PoolPeak = st.Peak
	report.GaugePeak = int(o.Gauge("hermes_admission_peak_lanes").Value())
	report.Queued = st.Queued
	report.Shed = st.Shed
	if st.Occupancy != 0 || st.Waiting != 0 {
		report.Errors = append(report.Errors, fmt.Sprintf("pool not drained after soak: %+v", st))
	}
	report.FaultEvents = len(tb.Faults.EventLog())
	// Every memo entry left must hold the relation a fault-free mediator
	// memoizes under the same key, after running the same plans.
	report.MemoStats = tb.Sys.Memo.Stats()
	ref, err := NewTestbed(TestbedOptions{
		Site:           opts.Site,
		WithInvariants: true,
		RouteViaCIM:    true,
		Seed:           opts.Seed,
		Core:           core.Options{Memo: &mcfg},
	})
	if err == nil {
		err = chaosPrime(ref)
	}
	for _, plan := range plans {
		var cur *engine.Cursor
		if err == nil {
			cur, err = ref.Sys.Execute(plan)
		}
		if err == nil {
			_, _, err = engine.CollectAll(cur)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("chaos: fault-free memo reference: %w", err)
	}
	relation := func(e *memo.Entry) string { // the sorted tuple multiset
		rows := make([]string, len(e.Tuples))
		for i, t := range e.Tuples {
			parts := make([]string, len(t))
			for j, v := range t {
				parts[j] = v.Key()
			}
			rows[i] = strings.Join(parts, "|")
		}
		sort.Strings(rows)
		return strings.Join(rows, "\n")
	}
	want := make(map[string]string)
	for _, e := range ref.Sys.Memo.SnapshotEntries() {
		want[e.Key] = relation(e)
	}
	for _, e := range tb.Sys.Memo.SnapshotEntries() {
		report.MemoEntries++
		if w, ok := want[e.Key]; !ok || w != relation(e) {
			report.MemoWrongEntries++
		}
	}
	return report, nil
}
