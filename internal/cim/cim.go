// Package cim implements the Cache and Invariant Manager of the paper
// (§4): a result cache of ground domain calls and their answer sets, plus
// invariant-driven reuse. At run time the CIM behaves like any other
// domain: the rewriter redirects selected calls to it, and the CIM serves
// them from cache (exact match), from a different cached call that an
// equality invariant proves equivalent, or as a fast partial answer from a
// cached subset call — optionally overlapping the actual source call in
// parallel and deduplicating its answers against those already served.
//
// All three are one lookup ladder, find, which every lookup runs: the serve
// path, the estimator's side-effect-free Probe, and the re-lookup after a
// failed source call.
//
// The CIM also realizes the paper's availability story: when the source is
// temporarily unreachable, cached (possibly partial) results are served
// instead of failing the query.
//
// The manager is safe for concurrent use by parallel query branches. The
// cache map is sharded (internal/shardmap) so lookups from different
// branches do not serialize behind one lock, and concurrent misses on the
// same call coalesce into a single source fetch (flight.go). Locks are
// split by concern — invariants, hooks, eviction, flights — and none is held
// while clock time is charged or a source is called; activity is tallied in
// lock-free counters.
package cim

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/domain"
	"hermes/internal/invindex"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/shardmap"
	"hermes/internal/term"
)

// Source says where a CIM response came from.
type Source int

// Response sources.
const (
	SourceActual Source = iota
	SourceCacheExact
	SourceCacheEquality
	SourceCachePartial
	// SourceCacheDegraded marks answers served purely from cache because
	// the source was unreachable (or its circuit breaker open): sound but
	// possibly stale/partial.
	SourceCacheDegraded
)

func (s Source) String() string {
	switch s {
	case SourceActual:
		return "actual"
	case SourceCacheExact:
		return "cache-exact"
	case SourceCacheEquality:
		return "cache-equality"
	case SourceCachePartial:
		return "cache-partial"
	case SourceCacheDegraded:
		return "cache-degraded"
	}
	return "?"
}

// EvictionPolicy selects which entries are evicted when the cache exceeds
// its budget.
type EvictionPolicy int

// Eviction policies: least-recently-used, or least observed source-call
// cost (keep what is most expensive to recompute).
const (
	EvictLRU EvictionPolicy = iota
	EvictCostWeighted
)

// Config tunes the CIM. The five time parameters are a simulation hook:
// zero (the default) charges the execution clock nothing for cache work,
// and only the experiments' overhead profile sets them, to reproduce the
// paper's Figure 5 (whose cache-only rows are not free: ≈300 ms to first
// answer including query initialization and display). Invariant matching
// always goes through the discrimination index, and an unreachable source
// always degrades to the cache: neither is configurable.
type Config struct {
	// LookupCost is charged per cache probe.
	LookupCost time.Duration
	// PerAnswer is charged per answer served from cache.
	PerAnswer time.Duration
	// InvariantMatch is charged per invariant tried against a call.
	InvariantMatch time.Duration
	// ScanPerEntry is charged per cache entry examined when an invariant
	// match requires scanning the cache (non-ground other side).
	ScanPerEntry time.Duration
	// DedupProbe is charged per actual-call answer compared against the
	// already-served partial answers ("CIM must keep the answers from the
	// cache in memory and compare them with the answers from the actual
	// call").
	DedupProbe time.Duration
	// ParallelActual launches the actual source call concurrently with
	// serving cached partial answers (the paper's recommended strategy);
	// when false the actual call starts only after the cache is drained.
	ParallelActual bool
	// MaxEntries bounds the number of cached calls (0 = unlimited).
	MaxEntries int
	// MaxBytes bounds the total cached answer bytes (0 = unlimited).
	MaxBytes int
	// Policy selects the eviction policy.
	Policy EvictionPolicy
}

// DefaultConfig returns the configuration of a live node: cache work is
// charged nothing (its real cost is whatever the CPU spends) and the actual
// call overlaps cached partial answers. Under every configuration an
// unreachable source degrades to the cache (CallThrough).
func DefaultConfig() Config {
	return Config{ParallelActual: true}
}

// Stats count CIM activity: a view of the manager's tallies, one atomic
// read per field and not one critical section — read it after the workload
// quiesces when the fields must add up.
type Stats struct {
	ExactHits    int
	EqualityHits int
	PartialHits  int
	Misses       int
	// DegradedServes counts responses served from cache because the source
	// was down: wholly (SourceCacheDegraded), or a partial hit whose
	// completion call failed.
	DegradedServes  int
	Evictions       int
	StoredEntries   int
	ServedFromCache int // answers served out of the cache
	// SingleFlightShares counts calls that attached to an identical (or
	// invariant-equivalent) call already in flight instead of issuing
	// their own source fetch.
	SingleFlightShares int
}

// Entry is one cached call with its answer set. Entries are immutable
// once stored (replacement swaps the whole entry) except for the recency
// stamp, which is atomic.
type Entry struct {
	Call    domain.Call
	Answers []term.Value
	// Complete is false when the answers are a known-sound but possibly
	// partial set (e.g. stored from a stream closed early). Incomplete
	// entries still serve as partial answers.
	Complete bool
	// Cost is the observed cost of the source call that produced the
	// answers; the cost-weighted eviction policy keeps expensive entries.
	Cost  domain.CostVector
	Bytes int

	key      string // Call.Key(), the key the store holds the entry under
	lastUsed atomic.Int64
	// hits and savedNS are the entry's row of the savings ledger: the
	// serves credited to it and the source time they avoided. The row
	// leaves the ledger with the entry.
	hits, savedNS atomic.Int64
}

// Caller executes actual source calls; satisfied by *domain.Registry.
type Caller interface {
	Call(ctx *domain.Ctx, c domain.Call) (domain.Stream, error)
}

// Manager is the cache and invariant manager.
type Manager struct {
	caller Caller
	cfg    Config

	// store is the sharded cache map, which also enforces the entry/byte
	// budgets (pickVictim, evicted); counter stamps recency.
	store   *shardmap.Map[*Entry]
	counter atomic.Int64

	// Tallies, bumped at the event site and read by Stats and the registry.
	lookups                        [len(outcomeNames)]obs.Counter // by serving Source
	degradedServes, evictions      obs.Counter
	storedEntries, servedFromCache obs.Counter
	singleFlightShares             obs.Counter
	idxCandidates                  obs.Counter

	// idx is the shared invariant + cached-call discrimination index:
	// equality/partial probes, flight attachment and cache scans consult
	// it instead of walking the invariant list or a store snapshot.
	idx *invindex.Index

	// hookMu guards the optional hooks, set once at wiring time.
	hookMu sync.RWMutex
	// onMeasure observes completed actual calls (wired to the DCSM).
	onMeasure func(domain.Measurement)
	// metrics is where each registered invariant's hit series is listed
	// (nil = off); listed holds the invariant texts listed there.
	metrics *obs.Registry
	listed  map[string]bool
	// invs holds each registered invariant's text and compiled form.
	invs map[*lang.Invariant]*invariant
	// costModel prices the source call a cache hit avoided (wired to the
	// DCSM estimator; nil = use the serving entry's observed cost).
	costModel func(domain.Call) (domain.CostVector, bool)
	// onInvalidate observes call keys whose cached answers stopped being
	// current: entry refreshed, evicted, cleared, replaced by a snapshot
	// load, or served degraded. The memo cache wires it to drop
	// intermediate relations built from those answers.
	onInvalidate func(callKey string)

	// ledger attributes hits and avoided cost per invariant (ledger.go);
	// each entry carries its own row.
	ledger ledger

	// flightMu guards the in-flight call index (flight.go).
	flightMu sync.Mutex
	flights  map[string]*flight
}

// New creates a manager that issues actual calls through caller.
func New(caller Caller, cfg Config) *Manager {
	m := &Manager{
		caller:  caller,
		cfg:     cfg,
		idx:     invindex.New(),
		flights: make(map[string]*flight),
		invs:    make(map[*lang.Invariant]*invariant),
		ledger:  ledger{byInvariant: make(map[string]LedgerRow)},
	}
	m.store = shardmap.New(func(e *Entry) int { return e.Bytes },
		cfg.MaxEntries, cfg.MaxBytes, m.pickVictim, m.evicted)
	return m
}

// outcomeNames are how a probe's serving Source reads as the outcome label
// of hermes_cim_lookups_total and the cim= tag on the call's span.
var outcomeNames = [...]string{
	SourceActual:        "miss",
	SourceCacheExact:    "exact",
	SourceCacheEquality: "equality",
	SourceCachePartial:  "partial",
	SourceCacheDegraded: "degraded",
}

// SetObserver attaches the manager's tallies to the observer's metrics
// registry: the hermes_cim_* and hermes_invindex_* families are declared
// here and nowhere else. The occupancy gauges read the store, and the
// in-flight gauge the flight index, at scrape time.
func (m *Manager) SetObserver(o *obs.Observer) {
	r := o.Registry()
	m.hookMu.Lock()
	m.metrics, m.listed = r, make(map[string]bool)
	for _, c := range m.invs {
		m.listInvariantLocked(c.key)
	}
	m.hookMu.Unlock()
	for i := range m.lookups {
		r.AttachCounter("hermes_cim_lookups_total", "CIM cache probes by serving outcome", m.lookups[i].Value, "outcome", outcomeNames[i])
	}
	r.AttachCounter("hermes_cim_degraded_total", "responses served purely from cache because the source was down", m.degradedServes.Value)
	r.AttachCounter("hermes_cim_evictions_total", "cache entries evicted by the CIM replacement policy", m.evictions.Value)
	r.AttachCounter("hermes_cim_singleflight_shares_total", "concurrent identical or invariant-equivalent calls served by one in-flight source fetch", m.singleFlightShares.Value)
	r.AttachCounter("hermes_cim_saved_ms_total", "estimated milliseconds of source work avoided by cache and invariant hits", func() int64 { return m.ledger.savedTotal().Milliseconds() })
	r.AttachGauge("hermes_cim_entries", "answer sets currently cached by the CIM", func() float64 { return float64(m.store.Len()) })
	r.AttachGauge("hermes_cim_bytes", "bytes of cached answer sets held by the CIM", func() float64 { return float64(m.store.Bytes()) })
	r.AttachGauge("hermes_cim_inflight_calls", "source calls currently in flight through the CIM", func() float64 {
		m.flightMu.Lock()
		defer m.flightMu.Unlock()
		return float64(len(m.flights))
	})
	r.AttachCounter("hermes_invindex_candidates_total", "invariants returned by discrimination-index probes (bucket sizes summed)", m.idxCandidates.Value)
}

// SetOnInvalidate installs the invalidation observer: fn is called with a
// call key whenever the cached answers for that call stop being current —
// the entry was refreshed with new answers, evicted, cleared, replaced by
// a snapshot load, or the call was served degraded (cached-while-down).
// The memo cache subscribes to drop dependent intermediate relations. fn
// must be safe for concurrent calls.
func (m *Manager) SetOnInvalidate(fn func(callKey string)) {
	m.hookMu.Lock()
	defer m.hookMu.Unlock()
	m.onInvalidate = fn
}

// invalidate reports a no-longer-current call key to the subscriber.
func (m *Manager) invalidate(callKey string) {
	m.hookMu.RLock()
	fn := m.onInvalidate
	m.hookMu.RUnlock()
	if fn != nil {
		fn(callKey)
	}
}

// measureHook returns the installed measurement observer.
func (m *Manager) measureHook() func(domain.Measurement) {
	m.hookMu.RLock()
	defer m.hookMu.RUnlock()
	return m.onMeasure
}

// lookup counts one cache probe outcome and tags the call's span with it.
func (m *Manager) lookup(ctx *domain.Ctx, served Source) {
	m.lookups[served].Inc()
	ctx.Span.SetTag("cim", outcomeNames[served])
}

// degraded counts a degraded (cache-only, source down) serve and marks the
// call's span.
func (m *Manager) degraded(ctx *domain.Ctx) {
	m.degradedServes.Inc()
	ctx.Span.SetTag("degraded", "true")
}

// SetMeasurementObserver installs a hook that receives the measurement of
// every actual source call the CIM issues; the mediator wires this to the
// DCSM statistics cache.
func (m *Manager) SetMeasurementObserver(fn func(domain.Measurement)) {
	m.hookMu.Lock()
	defer m.hookMu.Unlock()
	m.onMeasure = fn
}

// AddInvariant validates and compiles an invariant, registers it into the
// shared discrimination index, and lists its hit series at zero. Ill-formed
// invariants (free condition variables) are rejected: applying one could
// never be proven sound.
func (m *Manager) AddInvariant(inv *lang.Invariant) error {
	c, err := compileInvariant(inv)
	if err != nil {
		return err
	}
	m.hookMu.Lock()
	m.invs[inv] = c
	m.listInvariantLocked(c.key)
	m.hookMu.Unlock()
	m.idx.AddInvariant(inv)
	return nil
}

// listInvariantLocked lists the hermes_cim_invariant_hits_total series of
// the invariant text key, which reads the key's savings-ledger row, once
// per registry. The caller holds hookMu.
func (m *Manager) listInvariantLocked(key string) {
	if m.metrics == nil || m.listed[key] {
		return
	}
	m.listed[key] = true
	m.metrics.AttachCounter("hermes_cim_invariant_hits_total", "cache servings proved by an invariant, by invariant text", func() int64 { return m.ledger.hits(key) }, "invariant", key)
}

// Index exposes the invariant discrimination index (introspection).
func (m *Manager) Index() *invindex.Index { return m.idx }

// Stats returns the activity counters.
func (m *Manager) Stats() Stats {
	return Stats{
		ExactHits:          int(m.lookups[SourceCacheExact].Value()),
		EqualityHits:       int(m.lookups[SourceCacheEquality].Value()),
		PartialHits:        int(m.lookups[SourceCachePartial].Value()),
		Misses:             int(m.lookups[SourceActual].Value()),
		DegradedServes:     int(m.degradedServes.Value()),
		Evictions:          int(m.evictions.Value()),
		StoredEntries:      int(m.storedEntries.Value()),
		ServedFromCache:    int(m.servedFromCache.Value()),
		SingleFlightShares: int(m.singleFlightShares.Value()),
	}
}

// Len returns the number of cached entries.
func (m *Manager) Len() int { return m.store.Len() }

// Bytes returns the total cached answer bytes.
func (m *Manager) Bytes() int { return m.store.Bytes() }

// Clear drops all cached entries (invariants are kept). Every dropped
// call key is reported to the invalidation subscriber.
func (m *Manager) Clear() {
	dropped := m.store.Snapshot()
	m.store.Clear()
	m.idx.ResetCalls(nil)
	for _, e := range dropped {
		m.invalidate(e.key)
	}
}

// Lookup returns the cached entry for a call, if any, without charging any
// clock cost (introspection for tests and tools).
func (m *Manager) Lookup(c domain.Call) (*Entry, bool) {
	return m.store.Get(c.Key())
}

// Store inserts (or replaces) a cache entry for a call.
func (m *Manager) Store(c domain.Call, answers []term.Value, complete bool, cost domain.CostVector) {
	m.storeEntry(c, answers, complete, cost)
}

func (m *Manager) storeEntry(c domain.Call, answers []term.Value, complete bool, cost domain.CostVector) {
	bytes := 0
	for _, v := range answers {
		bytes += term.SizeBytes(v)
	}
	e := &Entry{Call: c, Answers: answers, Complete: complete, Cost: cost, Bytes: bytes, key: c.Key()}
	e.lastUsed.Store(m.counter.Add(1))
	m.idx.AddCall(c)
	if old, refreshed := m.store.Put(e.key, e); refreshed {
		// The call keeps its ledger row. A refresh replaced previously
		// served answers: memo relations built from the old entry are
		// stale. A fresh store fires nothing — the miss that produced it is
		// itself feeding an in-progress fill.
		e.hits.Add(old.hits.Load())
		e.savedNS.Add(old.savedNS.Load())
		m.invalidate(e.key)
	}
	m.storedEntries.Inc()
	m.store.Evict()
}

// pickVictim chooses the entry the configured policy evicts first from a
// store snapshot (the store's budget loop calls it while over budget).
func (m *Manager) pickVictim(snap []*Entry) (string, *Entry) {
	victim := snap[0]
	for _, e := range snap[1:] {
		if m.evictBefore(e, victim) {
			victim = e
		}
	}
	return victim.key, victim
}

// evicted unhooks an entry the budget loop removed.
func (m *Manager) evicted(key string, e *Entry) {
	m.idx.RemoveCall(e.Call)
	m.invalidate(key)
	m.evictions.Inc()
}

// evictBefore reports whether a should be evicted before b under the
// configured policy.
func (m *Manager) evictBefore(a, b *Entry) bool {
	switch m.cfg.Policy {
	case EvictCostWeighted:
		if a.Cost.TAll != b.Cost.TAll {
			return a.Cost.TAll < b.Cost.TAll
		}
		return a.lastUsed.Load() < b.lastUsed.Load()
	default: // EvictLRU
		return a.lastUsed.Load() < b.lastUsed.Load()
	}
}

func (m *Manager) touch(e *Entry) {
	e.lastUsed.Store(m.counter.Add(1))
}

// Response is the result of routing a call through the CIM. The calls
// whose answers it reads are reported to ctx.CallNote as they are read
// (note).
type Response struct {
	Stream domain.Stream
	Source Source
}

// note reports to the context's call observer (a memo fill recording its
// inputs) a call whose answers a serve read: the requested call, the
// cached call an invariant proved, or the flight a miss attached to.
// degraded marks answers served from cache while the source was down.
func note(ctx *domain.Ctx, key string, degraded bool) {
	if ctx.CallNote != nil {
		ctx.CallNote(key, degraded)
	}
}

// find is the CIM's one lookup ladder (§4.1): the call's own complete
// entry (exact), else a complete cached call an equality invariant proves
// identical, else the sound partial answer with the most cached answers —
// the call's own incomplete entry, or a cached call a superset invariant
// proves a subset. It returns the entry, the invariant that proved it (nil
// for the call's own entry) and the rung as a Source: a nil entry and
// SourceActual on a miss. key is the call's Key, in bytes. cands is how
// many invariants the discrimination index returned to the equality and
// partial rungs; the serve path counts them, a Probe does not. Besides that
// count, find only charges the lookup and matching costs to ctx's clock and
// tags its span.
func (m *Manager) find(ctx *domain.Ctx, call domain.Call, key []byte) (e *Entry, inv *lang.Invariant, src Source, cands int) {
	ctx.Clock.Sleep(m.cfg.LookupCost)
	own, ok := m.store.GetBytes(key)
	if ok && own.Complete {
		return own, nil, SourceCacheExact, 0
	}
	if e, inv, cands = m.findEquality(ctx, call); e != nil {
		return e, inv, SourceCacheEquality, cands
	}
	e, inv, n := m.findPartial(ctx, call, own)
	if e == nil {
		return nil, nil, SourceActual, cands + n
	}
	return e, inv, SourceCachePartial, cands + n
}

// CallThrough routes a ground call through the cache. find serves an
// exact, equality or partial hit; a miss issues the actual call, attached
// to an identical or equivalent call already in flight when there is one.
// The returned stream is lazy: for partial hits the actual source call
// starts only if the consumer drains past the cached answers, so
// interactive queries that stop early never pay for it (§4.1).
//
// When the actual call fails as unavailable (including an open circuit
// breaker, which wraps domain.ErrUnavailable), find runs once more and
// whatever it finds is served as SourceCacheDegraded instead of failing
// the call. The only entry it can find that the first run missed is one a
// concurrent call stored in between, and since it keeps the ladder's
// order, it prefers a complete equality match to the call's own incomplete
// entry.
//
// The call's key is built in a stack buffer for the lookups. An exact hit
// notes the entry's own key, which is the same string, so only a miss, an
// equality hit or a partial hit copies the key into a string.
func (m *Manager) CallThrough(ctx *domain.Ctx, call domain.Call) (Response, error) {
	var buf [domain.CallBuf]byte
	kb := call.AppendKey(buf[:0])
	e, inv, src, cands := m.find(ctx, call, kb)
	m.idxCandidates.Add(int64(cands))
	if src == SourceCacheExact {
		return m.serve(ctx, call, e.key, e, inv, src), nil
	}
	key := string(kb)
	if e != nil {
		return m.serve(ctx, call, key, e, inv, src), nil
	}
	m.lookup(ctx, SourceActual)
	r, err := m.actualStream(ctx, call, key)
	if err == nil {
		return Response{Stream: r, Source: SourceActual}, nil
	}
	if !isUnavailable(err) {
		return Response{}, err
	}
	e, inv, _, cands = m.find(ctx, call, kb)
	m.idxCandidates.Add(int64(cands))
	if e == nil {
		return Response{}, err
	}
	return m.serve(ctx, call, key, e, inv, SourceCacheDegraded), nil
}

// serve answers a call from the entry find chose, as source src: it notes
// the calls it reads, stamps recency, counts and tags the serve, credits
// the savings ledger and builds the response. Exact and equality hits
// replace the source call and are credited with its avoided cost; a
// partial hit still issues the call, and a degraded serve had no working
// source to avoid, so those count hits only.
func (m *Manager) serve(ctx *domain.Ctx, call domain.Call, key string, e *Entry, inv *lang.Invariant, src Source) Response {
	degraded := src == SourceCacheDegraded
	note(ctx, key, degraded)
	if inv != nil {
		// An invariant proved another call's entry: a refresh of that
		// entry must drop what was built from this serve too.
		note(ctx, e.key, degraded)
	}
	m.touch(e)
	m.servedFromCache.Add(int64(len(e.Answers)))
	m.lookup(ctx, src)
	if degraded {
		m.degraded(ctx)
		// Memo relations previously built from this call's answers must
		// not outlive the outage as exact.
		m.invalidate(key)
	}
	if src != SourceCacheExact && ctx.Span != nil {
		ctx.Span.SetTag("serving", e.Call.String())
	}
	m.credit(ctx, call, e, inv, src == SourceCacheExact || src == SourceCacheEquality)
	if src == SourceCachePartial {
		return Response{Stream: m.servePartialThenActual(ctx, call, key, e), Source: src}
	}
	return Response{Stream: domain.NewTimedSliceStream(e.Answers, ctx.Clock, m.cfg.PerAnswer), Source: src}
}

// servePartialThenActual builds the two-phase stream: cached answers first
// (fast first answers), then the actual call's remaining answers
// deduplicated against them. With ParallelActual the actual call is
// accounted on a clock forked at request time, so its latency overlaps the
// cached phase. No manager lock is held anywhere in the stream path.
func (m *Manager) servePartialThenActual(ctx *domain.Ctx, call domain.Call, key string, e *Entry) domain.Stream {
	cached := e.Answers
	seed := make(map[string]struct{}, len(cached))
	var fork *domain.Ctx
	if m.cfg.ParallelActual {
		fork = ctx.Fork() // forked now == "launched in parallel at request time"
	}
	idx := 0
	var actual domain.Stream
	var actualErr error
	started := false
	// degrade ends the stream when the source is unreachable: everything
	// emitted so far (the cached prefix and any actual answers) is sound,
	// so the partial result stands instead of failing the query.
	degrade := func() (term.Value, bool, error) {
		m.degraded(ctx)
		note(ctx, key, true)
		m.invalidate(key)
		return nil, false, nil
	}

	next := func() (term.Value, bool, error) {
		if idx < len(cached) {
			v := cached[idx]
			idx++
			ctx.Clock.Sleep(m.cfg.PerAnswer)
			seed[v.Key()] = struct{}{}
			return v, true, nil
		}
		if !started {
			started = true
			actx := ctx
			if fork != nil {
				actx = fork
			}
			var r *flightReader
			r, actualErr = m.actualStream(actx, call, key)
			if actualErr == nil {
				actual = domain.NewDedupStream(r, seed).WithProbeCost(ctx.Clock, m.cfg.DedupProbe)
			}
		}
		if actualErr != nil {
			if isUnavailable(actualErr) {
				return degrade()
			}
			return nil, false, actualErr
		}
		v, ok, err := actual.Next()
		if fork != nil {
			ctx.Clock.Join(fork.Clock) // wait for the parallel call to catch up
		}
		if err != nil && isUnavailable(err) {
			return degrade() // the source died mid-completion
		}
		return v, ok, err
	}
	closer := func() error {
		if actual != nil {
			return actual.Close()
		}
		return nil
	}
	return domain.NewFuncStream(next, closer)
}

// isUnavailable walks the full wrap tree (errors.Is handles the
// multi-error chains the resilience layer builds).
func isUnavailable(err error) bool {
	return errors.Is(err, domain.ErrUnavailable)
}
