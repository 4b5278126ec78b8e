// Package core assembles the mediator system of the paper: the rule
// program, the source domains, the cache and invariant manager (CIM), the
// domain cost and statistics module (DCSM), the rule rewriter, the rule
// cost estimator, and the execution engine — wired together exactly as in
// the paper's Figure 1. It is the public API of this library: construct a
// System, register domains, load a mediator program (rules + invariants),
// and run queries; the optimizer rewrites each query into candidate plans,
// prices them against cached statistics, and executes the cheapest.
package core

import (
	"context"
	"fmt"
	"io"
	"maps"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"hermes/internal/admission"
	"hermes/internal/cim"
	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/engine"
	"hermes/internal/estimate"
	"hermes/internal/lang"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/resilience"
	"hermes/internal/rewrite"
	"hermes/internal/vclock"
)

// Options configure a System. The zero value gives a virtual clock, an
// enabled CIM, a statistics-cache DCSM and the paper's rewriter and
// estimator settings, and charges the execution clock no mediator
// overhead: time passes only where a source, the network or a resilience
// backoff spends it.
type Options struct {
	// Clock is the execution clock (nil: fresh virtual clock).
	Clock vclock.Clock
	// DisableCIM removes the cache and invariant manager entirely (the
	// paper's "no cache, no invariants" configuration).
	DisableCIM bool
	// CIM configures the cache and invariant manager.
	CIM *cim.Config
	// DCSM configures the statistics module.
	DCSM *dcsm.Config
	// Engine configures the run-time query processor's modelled overheads
	// (QueryInit, PerDisplay).
	Engine *engine.Config
	// Rewrite configures plan enumeration. CIMDomains defaults to routing
	// every registered domain through the CIM when the CIM is enabled and
	// the field is nil.
	Rewrite *rewrite.Config
	// Resilience, when set, wraps every registered domain in a resilient
	// call layer: per-call deadlines, bounded retry with deterministic
	// backoff, and a per-domain circuit breaker. A call the layer gives up
	// on reaches the CIM as unavailable, and the CIM degrades it to cached
	// answers instead of failing the query.
	Resilience *resilience.Policy
	// QueryDeadline, when nonzero, gives every query that much execution
	// clock from its start; past it, evaluation stops with
	// domain.ErrDeadlineExceeded. Retries and backoff respect the budget.
	QueryDeadline time.Duration
	// Obs, when set, threads an observer through every layer: the engine,
	// CIM, DCSM, resilience wrappers and remote clients all update its
	// metrics registry, and queries build span trees that its flight
	// recorder keeps, each call span carrying the DCSM's estimate
	// (EXPLAIN's est column). The
	// observer only records: the DCSM's access counts, its summary tables,
	// the calibration and every plan choice are the same without one.
	Obs *obs.Observer
	// Parallelism bounds how many operator branches one query may run
	// concurrently: parallel rule unions, prefetched independent source
	// calls. <= 0 defaults to runtime.GOMAXPROCS(0); 1 disables intra-query
	// parallelism (strictly sequential evaluation, byte-identical to the
	// pre-parallel engine). On a virtual clock parallel execution stays
	// deterministic (answers merge in virtual-time order); on a wall clock
	// union answers arrive in completion order.
	Parallelism int
	// MaxInflightCalls, when positive, bounds evaluation lanes — and hence
	// in-flight source calls — server-wide across every concurrent query
	// session, via a shared admission pool. Parallelism still caps each
	// query individually; the pool caps their sum, with weighted fair
	// sharing so no session can starve the others. 0 means unbounded
	// (no pool): each session gets a free-standing scheduler.
	MaxInflightCalls int
	// ShedPolicy selects what happens to a session arriving at a saturated
	// pool: admission.PolicyWait queues it FIFO (the default),
	// admission.PolicyShed rejects it immediately with a fast error
	// wrapping domain.ErrOverloaded. Ignored without MaxInflightCalls.
	ShedPolicy admission.Policy
	// Memo, when set, enables the rule-level memo cache: intermediate IDB
	// relations are cached by (rule set, adornment, binding pattern) and
	// replayed instead of re-expanded, with size-capped admission, LRU
	// eviction, and invalidation driven by the CIM (a contributing domain
	// call refreshed, evicted, or served degraded drops the relation). A
	// memo hit's saving is counted by the memo alone (memo.Stats.Saved),
	// not in the CIM's savings ledger. Nil disables memoization. Use
	// memo.DefaultConfig() for the defaults.
	// When memoization is on, plan costing prices subgoals whose memo
	// entry is currently resident at their replay cost, so α-equivalent
	// repeat queries pick orders that reuse warm entries.
	Memo *memo.Config
	// CalInflateQuantile, when > 0, turns on calibration-inflated plan
	// costing: every call's estimated time is multiplied by this quantile
	// of the q-error distribution the DCSM's calibration holds for its
	// (domain, function); 1 reads the window's maximum. Use a pessimistic
	// quantile (0.9): the inflated cost is then a worst-plausible-case
	// cost, and minimizing it picks robust plans exactly when the
	// calibration grade is rough. 0 keeps the calibration-blind costing of
	// earlier releases.
	CalInflateQuantile float64
	// ColdStartInflation is the factor applied to calls whose function
	// has no q-error observations at all (only meaningful with
	// CalInflateQuantile > 0). Values <= 1 leave cold calls uninflated.
	// Functions with even one observation use their observed quantile
	// instead — see obs.Calibration.PlanGrade's cold/thin distinction.
	ColdStartInflation float64
}

// System is a mediator instance.
type System struct {
	Registry *domain.Registry
	Program  *lang.Program
	CIM      *cim.Manager // nil when disabled
	Memo     *memo.Cache  // nil when rule-level memoization is off
	DCSM     *dcsm.DB
	Clock    vclock.Clock
	// Obs is the observer threaded through the layers (nil when the system
	// was built without one; all uses are nil-safe).
	Obs *obs.Observer
	// Admission is the server-wide lane pool bounding in-flight source
	// calls across all sessions (nil when the system was built without
	// Options.MaxInflightCalls; sessions then use free-standing
	// schedulers).
	Admission *admission.Pool

	engine        *engine.Engine
	rewriteCfg    rewrite.Config
	planner       atomic.Pointer[rewrite.Planner]
	estimator     *estimate.Estimator
	cimAll        bool // route all domains through the CIM unless configured
	resilience    *resilience.Policy
	wrappers      map[string]*resilience.Wrapper
	queryDeadline time.Duration
	parallelism   int
	// inflationApplied counts plan choices whose winning estimate was
	// inflated; NewSystem attaches it to the metrics registry.
	inflationApplied obs.Counter
}

// NewSystem builds a system from options.
func NewSystem(opts Options) *System {
	clk := opts.Clock
	if clk == nil {
		clk = vclock.NewVirtual(0)
	}
	s := &System{
		Registry:      domain.NewRegistry(),
		Program:       &lang.Program{},
		Clock:         clk,
		Obs:           opts.Obs,
		resilience:    opts.Resilience,
		wrappers:      map[string]*resilience.Wrapper{},
		queryDeadline: opts.QueryDeadline,
		parallelism:   opts.Parallelism,
	}
	// Normalize here, in one place, for every entry point (library callers,
	// hermesd flags, experiments): zero and negative both mean "default".
	// A raw negative used to slip through and yield a scheduler that could
	// never grant lanes while the docs promised GOMAXPROCS.
	if s.parallelism <= 0 {
		s.parallelism = runtime.GOMAXPROCS(0)
	}
	s.Obs.Registry().AttachCounter("hermes_plan_inflation_applied_total", "plan choices whose winning estimate carried q-error or cold-start cost inflation", s.inflationApplied.Value)
	if opts.MaxInflightCalls > 0 {
		s.Admission = admission.NewPool(admission.Config{
			MaxInflight: opts.MaxInflightCalls,
			Policy:      opts.ShedPolicy,
		})
		s.Admission.SetObserver(opts.Obs)
	}
	dcfg := dcsm.DefaultConfig()
	if opts.DCSM != nil {
		dcfg = *opts.DCSM
	}
	s.DCSM = dcsm.New(dcfg, clk.Now)
	s.DCSM.SetObserver(s.Obs)

	// Every completed source measurement feeds the DCSM, which grades its
	// own estimate against it first. Both routes — direct engine calls and
	// CIM cache misses — converge there, and cache-served or single-flight-
	// shared streams never produce a measurement, so they cannot pollute
	// the q-error distributions.
	if !opts.DisableCIM {
		ccfg := cim.DefaultConfig()
		if opts.CIM != nil {
			ccfg = *opts.CIM
		}
		s.CIM = cim.New(s.Registry, ccfg)
		s.CIM.SetMeasurementObserver(s.DCSM.Observe)
		s.CIM.SetObserver(s.Obs)
		// The savings ledger prices what each cache hit avoided with the
		// estimate the planner would have used, read without counting.
		s.CIM.SetCostModel(s.DCSM.Peek)
	}

	var ecfg engine.Config
	if opts.Engine != nil {
		ecfg = *opts.Engine
	}
	s.engine = engine.New(s.Registry, s.CIM, ecfg, s.Obs, s.DCSM.Peek, s.DCSM.Observe)

	if opts.Memo != nil {
		mc := memo.New(*opts.Memo)
		mc.SetObserver(s.Obs)
		if s.CIM != nil {
			// CIM invalidations — refresh, eviction, degraded serve — drop
			// the memo relations built from those answers.
			s.CIM.SetOnInvalidate(mc.InvalidateInput)
		}
		s.engine.SetMemo(mc)
		s.Memo = mc
	}

	if opts.Rewrite != nil {
		s.rewriteCfg = *opts.Rewrite
	}
	if s.rewriteCfg.CIMDomains == nil {
		s.rewriteCfg.CIMDomains = map[string]bool{}
		s.cimAll = s.CIM != nil && opts.Rewrite == nil
	}
	s.estimator = estimate.New(s.DCSM, s.CIM)
	// Memo-aware costing: subgoals whose memo entry is resident are priced
	// at their replay cost, so repeat queries pick orders that reuse warm
	// entries (cache management and optimization together).
	s.estimator.SetMemo(s.Memo)
	s.estimator.SetCalibration(opts.CalInflateQuantile, opts.ColdStartInflation)
	s.replan()
	return s
}

// Register adds a source domain to the federation. If the domain ships a
// native cost estimator it is connected to the DCSM. When the system was
// built without an explicit rewrite configuration and the CIM is enabled,
// the domain's calls are routed through the CIM. With a resilience policy
// configured, the domain is placed behind a resilient call wrapper.
func (s *System) Register(d domain.Domain) {
	if s.resilience != nil {
		w := resilience.Wrap(d, *s.resilience)
		s.wrappers[d.Name()] = w
		d = w
	}
	s.Registry.Register(d)
	if s.cimAll {
		s.rewriteCfg.CIMDomains[d.Name()] = true
	}
	s.replan()
	// Estimators and observable layers may sit behind wrapper layers
	// (resilience, netsim): walk the unwrap chain, connecting every layer
	// that participates.
	type unwrapper interface{ Inner() domain.Domain }
	type observable interface{ SetObserver(*obs.Observer) }
	// actualsSink matches the remote client (without importing
	// internal/remote): a mounted peer that reports each served call's
	// [Tf,Ta,Card] actual back across the wire in its trace subtree.
	type actualsSink interface {
		SetActualsHook(func(domain.Call, obs.Cost))
	}
	// The domain's q-error series list at zero from registration on.
	s.DCSM.Calibration().ListDomain(d.Name())
	foundEst := false
	for probe := d; probe != nil; {
		if est, ok := probe.(domain.Estimator); ok && !foundEst {
			s.DCSM.RegisterEstimator(d.Name(), est)
			foundEst = true
		}
		if o, ok := probe.(observable); ok {
			o.SetObserver(s.Obs)
		}
		if a, ok := probe.(actualsSink); ok {
			// The peer's actual is the served subtree's compute alone; the
			// engine's own measurement of the same call includes wire time,
			// so together they bound the true cross-hop cost.
			a.SetActualsHook(s.DCSM.Grade)
		}
		u, ok := probe.(unwrapper)
		if !ok {
			break
		}
		probe = u.Inner()
	}
}

// Resilience returns the resilient wrapper interposed for a domain, when
// the system was built with a resilience policy (metrics, breaker state).
func (s *System) Resilience(dom string) (*resilience.Wrapper, bool) {
	w, ok := s.wrappers[dom]
	return w, ok
}

// RouteThroughCIM sets whether a domain's calls go through the CIM.
func (s *System) RouteThroughCIM(dom string, via bool) {
	if s.rewriteCfg.CIMDomains == nil {
		s.rewriteCfg.CIMDomains = map[string]bool{}
	}
	s.rewriteCfg.CIMDomains[dom] = via
	s.replan()
}

// LoadProgram parses mediator source and adds its rules and invariants.
func (s *System) LoadProgram(src string) error {
	prog, err := lang.ParseProgram(src)
	if err != nil {
		return fmt.Errorf("core: parse program: %w", err)
	}
	s.Program.Rules = append(s.Program.Rules, prog.Rules...)
	s.replan()
	for _, inv := range prog.Invariants {
		s.Program.Invariants = append(s.Program.Invariants, inv)
		if s.CIM != nil {
			if err := s.CIM.AddInvariant(inv); err != nil {
				return fmt.Errorf("core: %w", err)
			}
		}
	}
	return nil
}

// Ctx returns a fresh execution context over the system clock. A
// configured query deadline is armed relative to the current reading, and
// the context carries a fresh per-query scheduler bounding intra-query
// parallelism.
//
// Ctx bypasses the admission pool: its scheduler is free-standing, so
// calls made through it are not counted against MaxInflightCalls. It is
// the right entry point for sequential embedding (one query at a time,
// the pre-admission behaviour) and for maintenance traffic
// (WarmStatistics, PrimeCache) that must not be shed; concurrent serving
// paths should admit sessions with AdmitCtx instead.
func (s *System) Ctx() *domain.Ctx {
	ctx := domain.NewCtx(s.Clock)
	if s.queryDeadline > 0 {
		ctx.Deadline = s.Clock.Now() + s.queryDeadline
	}
	ctx.Sched = domain.NewSched(s.parallelism)
	return ctx
}

// AdmitCtx admits a query session of the given weight (≤ 0 means 1) into
// the server-wide admission pool and returns its execution context plus a
// release function that MUST be called when the session ends (it returns
// the session's lanes to the pool and folds its clock back into the
// system clock). The context runs on a fork of the system clock, so
// concurrent sessions accrue virtual time independently, and its
// scheduler leases every extra lane from the pool — Options.Parallelism
// still caps the session individually, the pool caps all sessions
// together.
//
// Saturation behaviour follows Options.ShedPolicy: under PolicyWait the
// call blocks until a lane frees (gc, when non-nil, can abandon the
// wait), with the wait charged to the session's clock in virtual time;
// under PolicyShed it fails fast with an error wrapping
// domain.ErrOverloaded — no source ever sees the request.
//
// Without a configured pool (Options.MaxInflightCalls == 0), AdmitCtx
// still forks the clock and arms the deadline but uses a free-standing
// scheduler and never fails.
func (s *System) AdmitCtx(gc context.Context, weight int) (*domain.Ctx, func(), error) {
	clk := s.Clock.Fork()
	ctx := domain.NewCtx(clk)
	ctx.Context = gc
	if s.queryDeadline > 0 {
		ctx.Deadline = clk.Now() + s.queryDeadline
	}
	if s.Admission == nil {
		ctx.Sched = domain.NewSched(s.parallelism)
		return ctx, func() { s.Clock.Join(clk) }, nil
	}
	var cancel <-chan struct{}
	if gc != nil {
		cancel = gc.Done()
	}
	lease, err := s.Admission.Admit(weight, clk.Now, cancel)
	if err != nil {
		if gc != nil && gc.Err() != nil {
			return nil, nil, gc.Err()
		}
		return nil, nil, err
	}
	// A queued session's lane freed at GrantedAt on another session's
	// clock: advance ours to it, so waiting for admission costs this
	// session virtual time exactly like waiting on a slow source.
	vclock.AdvanceTo(clk, lease.GrantedAt())
	ctx.Sched = domain.NewLeasedSched(s.parallelism, lease)
	release := func() {
		lease.Close()
		s.Clock.Join(clk)
	}
	return ctx, release, nil
}

// Plans returns the rewriter's candidate plans for a query's text. The
// text is lexed once: a query whose tokens are those of an earlier query's
// but for its strings, integers and floats gets the earlier query's plans
// with its own constants lifted into them, unparsed (see rewrite.Planner);
// any other is parsed.
func (s *System) Plans(query string) ([]*rewrite.Plan, error) {
	toks, err := lang.LexQuery(query)
	if err != nil {
		return nil, fmt.Errorf("core: parse query: %w", err)
	}
	p := s.planner.Load()
	if plans, ok := p.Prepared(toks); ok {
		return plans, nil
	}
	tp, err := lang.ParseTemplate(toks)
	if err != nil {
		return nil, fmt.Errorf("core: parse query: %w", err)
	}
	return p.PlansFrom(toks, tp)
}

// PlansFor returns the candidate plans of a parsed query. They are
// enumerated once per query shape (see rewrite.Planner) and shared with
// the other queries of the shape: they are read-only.
func (s *System) PlansFor(q *lang.Query) ([]*rewrite.Plan, error) {
	return s.planner.Load().Plans(q)
}

// replan replaces the planner, and with it the table of query shapes, for
// a change to what enumeration reads: the program, the registry or the
// routing. The new rewriter gets its own copy of the routing.
func (s *System) replan() {
	cfg := s.rewriteCfg
	cfg.CIMDomains = maps.Clone(cfg.CIMDomains)
	s.planner.Store(rewrite.NewPlanner(rewrite.New(s.Program, cfg, s.Registry)))
}

// PlanCost prices a plan with the rule cost estimator.
func (s *System) PlanCost(p *rewrite.Plan) (domain.CostVector, error) {
	cv, _, err := s.estimator.PlanCost(p)
	return cv, err
}

// Optimize rewrites the query and returns the cheapest plan by estimated
// all-answers time (or first-answer time when interactive).
func (s *System) Optimize(query string, interactive bool) (*rewrite.Plan, domain.CostVector, error) {
	plans, err := s.Plans(query)
	if err != nil {
		return nil, domain.CostVector{}, err
	}
	return s.choose(nil, plans, interactive)
}

// Execute runs a plan, returning a cursor over the answers.
func (s *System) Execute(p *rewrite.Plan) (*engine.Cursor, error) {
	return s.engine.ExecutePlan(s.Ctx(), p)
}

// ExecuteCtx runs a plan under a caller-supplied execution context, for
// per-query cancellation or deadlines differing from the system default.
func (s *System) ExecuteCtx(ctx *domain.Ctx, p *rewrite.Plan) (*engine.Cursor, error) {
	return s.engine.ExecutePlan(ctx, p)
}

// Query optimizes and executes in one step (all-answers ranking).
func (s *System) Query(query string) (*engine.Cursor, error) {
	plan, _, err := s.Optimize(query, false)
	if err != nil {
		return nil, err
	}
	return s.Execute(plan)
}

// QueryTraced optimizes and executes a query under a root trace span
// covering the whole pipeline: a rewrite child span (candidate plan
// count), a plan-choice child span (chosen index, plan, estimated cost),
// then one child span per domain call added by the engine. The span tree
// finalizes — and publishes to the flight recorder — when the cursor is
// drained or closed; obs.Explain(cursor.Span().Snapshot()) renders that
// same tree, not a copy. Without an observer this is Query with per-plan
// estimation ranking.
func (s *System) QueryTraced(query string, interactive bool) (*engine.Cursor, error) {
	return s.QueryTracedCtx(s.Ctx(), query, interactive)
}

// QueryTracedCtx is QueryTraced under a caller-supplied execution context
// — typically one from AdmitCtx, so the whole optimize-and-execute
// pipeline runs on the admitted session's clock and scheduler. When the
// context's scheduler leases lanes from the admission pool, the root span
// is tagged with the session's admission wait.
func (s *System) QueryTracedCtx(ctx *domain.Ctx, query string, interactive bool) (*engine.Cursor, error) {
	root := s.Obs.StartQuery(strings.TrimSpace(query), ctx.Clock.Now())
	if lease, ok := ctx.Sched.Lease().(*admission.Lease); ok {
		root.SetTagInt("admission.wait_ms", int(lease.Waited().Milliseconds()))
	}

	rw := root.Child("rewrite", ctx.Clock.Now())
	plans, err := s.Plans(query)
	if err != nil {
		rw.SetTag("error", err.Error())
		rw.End(ctx.Clock.Now())
		root.End(ctx.Clock.Now())
		return nil, err
	}
	rw.SetTagInt("plans", len(plans))
	rw.End(ctx.Clock.Now())

	pc := root.Child("plan-choice", ctx.Clock.Now())
	best, _, err := s.choose(pc, plans, interactive)
	pc.End(ctx.Clock.Now())
	if err != nil {
		root.End(ctx.Clock.Now())
		return nil, err
	}
	return s.engine.ExecutePlan(ctx.WithSpan(root), best)
}

// choose ranks the candidate plans and returns the cheapest. On a
// plan-choice span (nil when untraced) it records the choice: the chosen
// index and plan, its estimate, the inflation and memo replays behind it,
// and whether it was ranked on trustworthy numbers.
func (s *System) choose(pc *obs.Span, plans []*rewrite.Plan, interactive bool) (*rewrite.Plan, domain.CostVector, error) {
	best, cv, detail, err := s.estimator.Best(plans, interactive)
	if err != nil {
		pc.SetTag("error", err.Error())
		return nil, cv, err
	}
	inflated := detail.Inflated+detail.ColdInflated > 0
	if inflated {
		s.inflationApplied.Inc()
	}
	if pc == nil {
		return best, cv, nil
	}
	for i, p := range plans {
		if p == best {
			pc.SetTagInt("chosen", i+1)
		}
	}
	pc.SetTagFrom("plan", rewrite.QueryLine{Plan: best})
	pc.SetEstimate(cv)
	if inflated {
		// The winning estimate carries q-error (or cold-start) inflation:
		// record the largest factor applied to any of its calls.
		pc.SetTagFixed("cal.inflate", detail.MaxInflation, 2)
	}
	if detail.MemoHits > 0 {
		pc.SetTagInt("memo.est_hits", detail.MemoHits)
	}
	// Was the winning plan ranked on trustworthy numbers? Grade the
	// cost-model calibration of every function the plan can call.
	grade, worst := s.DCSM.Calibration().PlanGrade(best.Functions())
	pc.SetTag("calibration", grade)
	if grade != "cold" {
		pc.SetTagFixed("calibration.qerr", worst, 2)
	}
	return best, cv, nil
}

// QueryAll optimizes, executes and drains a query.
func (s *System) QueryAll(query string) ([]engine.Answer, engine.Metrics, error) {
	cur, err := s.Query(query)
	if err != nil {
		return nil, engine.Metrics{}, err
	}
	return engine.CollectAll(cur)
}

// WarmStatistics trains the DCSM by running a set of ground calls directly
// against the sources (outside any query), the way the paper's cost vector
// database accumulated ~20 instantiations per call before the Figure 6
// experiment.
func (s *System) WarmStatistics(calls []domain.Call) error {
	for _, c := range calls {
		ctx := s.Ctx()
		start := ctx.Clock.Now()
		inner, err := s.Registry.Call(ctx, c)
		if err != nil {
			return fmt.Errorf("core: warm %s: %w", c, err)
		}
		ms := domain.NewMeasuredStreamAt(inner, ctx.Clock, c, start, s.DCSM.Observe)
		if _, err := domain.Collect(ms); err != nil {
			return fmt.Errorf("core: warm %s: %w", c, err)
		}
	}
	return nil
}

// PrimeCache runs ground calls through the CIM so their results are
// cached, the way the paper primed its caches before the timed Figure 5
// runs. It is an error if the CIM is disabled.
func (s *System) PrimeCache(calls []domain.Call) error {
	if s.CIM == nil {
		return fmt.Errorf("core: PrimeCache: CIM is disabled")
	}
	for _, c := range calls {
		resp, err := s.CIM.CallThrough(s.Ctx(), c)
		if err != nil {
			return fmt.Errorf("core: prime %s: %w", c, err)
		}
		if _, err := domain.Collect(resp.Stream); err != nil {
			return fmt.Errorf("core: prime %s: %w", c, err)
		}
	}
	return nil
}

// SaveState persists the result cache and the statistics cache.
func (s *System) SaveState(cache, stats io.Writer) error {
	if s.CIM != nil && cache != nil {
		if err := s.CIM.Save(cache); err != nil {
			return err
		}
	}
	if stats != nil {
		return s.DCSM.Save(stats)
	}
	return nil
}

// LoadState restores the result cache and the statistics cache. Nil
// readers are skipped.
func (s *System) LoadState(cache, stats io.Reader) error {
	if s.CIM != nil && cache != nil {
		if err := s.CIM.Load(cache); err != nil {
			return err
		}
	}
	if stats != nil {
		return s.DCSM.Load(stats)
	}
	return nil
}

// AutoTuneStatistics applies the DCSM's access-pattern policy (§6.2.2):
// materialize summary tables for lookup shapes that repeatedly needed raw
// aggregation, drop tables that went unused.
func (s *System) AutoTuneStatistics(createThreshold, keepThreshold int) (created, dropped []string, err error) {
	return s.DCSM.AutoTune(createThreshold, keepThreshold)
}
