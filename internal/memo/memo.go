// Package memo is the rule-level memo cache: where the CIM (internal/cim)
// caches the answers of ground *domain calls*, the memo caches whole
// *intermediate relations* — the answer tuples of an IDB subgoal occurrence
// (predicate + adornment + bound values + free-variable structure, key.go).
// The engine consults it before re-expanding a subgoal, so repeated traffic
// skips not just the source calls but the joins, unions and per-rule
// bookkeeping above them; following "Don't Trash your Intermediate Results,
// Cache 'em" (Roy et al.), eviction is benefit-driven: each entry carries
// an exponentially decayed score of the compute time its hits avoided, and
// the lowest-scoring entries are evicted first. Admission is by size alone
// (Config.MaxEntryBytes).
//
// Soundness machinery:
//
//   - Every entry records the set of domain-call keys that contributed to
//     it (Inputs). The CIM fires Cache.InvalidateInput whenever one of
//     those calls is refreshed, evicted or served degraded, and the memo
//     drops every dependent entry.
//   - Entries built while a source was down (any contributing call served
//     degraded) are stored tagged Degraded and are never served: the next
//     evaluation after recovery replaces them with a fresh entry.
//   - Concurrent identical subgoals coalesce into one fill (a flight): the
//     first occurrence evaluates and publishes tuples as they arrive, the
//     others replay the publication stream; if the leader abandons the fill
//     (error, early close), followers fall back to their own evaluation,
//     subtracting the multiset of tuples they already emitted.
package memo

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/shardmap"
	"hermes/internal/spool"
	"hermes/internal/term"
)

// Config tunes the memo cache. A zero Decay or MaxEntryBytes takes the
// default; MaxEntries/MaxBytes zero mean unlimited; zero costs charge
// nothing.
type Config struct {
	// MaxEntries bounds the number of cached relations (0 = unlimited).
	MaxEntries int
	// MaxBytes bounds the total cached tuple bytes (0 = unlimited).
	MaxBytes int
	// Decay is the per-operation multiplicative decay of each entry's
	// benefit score: after n cache operations without a hit an entry's
	// score has shrunk by Decay^n, so eviction tracks recent value rather
	// than lifetime totals. Must be in (0, 1]; 1 disables decay; 0 takes
	// the default.
	Decay float64
	// MaxEntryBytes skips storing any single relation larger than this
	// (0 takes the default; negative = unlimited).
	MaxEntryBytes int
	// LookupCost is charged to the query clock per memo probe.
	LookupCost time.Duration
	// PerTuple is charged per tuple replayed from a memo entry or flight.
	PerTuple time.Duration
}

const (
	defaultMaxEntries    = 512
	defaultMaxBytes      = 8 << 20
	defaultDecay         = 0.98
	defaultMaxEntryBytes = 256 << 10
)

// DefaultConfig returns hermesd's configuration: bounded budgets, decayed
// benefit scores, and no modelled probe or replay cost.
func DefaultConfig() Config {
	return Config{
		MaxEntries:    defaultMaxEntries,
		MaxBytes:      defaultMaxBytes,
		Decay:         defaultDecay,
		MaxEntryBytes: defaultMaxEntryBytes,
	}
}

func (cfg Config) normalized() Config {
	if cfg.Decay <= 0 || cfg.Decay > 1 {
		cfg.Decay = defaultDecay
	}
	if cfg.MaxEntryBytes == 0 {
		cfg.MaxEntryBytes = defaultMaxEntryBytes
	}
	return cfg
}

// Stats count memo activity: a view of the cache's tallies, one atomic read
// per field and not one critical section — read it after the workload
// quiesces when the fields must add up.
type Stats struct {
	// Hits are probes served from a committed, non-degraded entry.
	Hits int
	// Misses are probes that found nothing serveable (including degraded
	// skips) and so either led or followed a fill.
	Misses int
	// Stores counts committed fills admitted into the cache.
	Stores int
	// DegradedStores counts committed fills stored tagged Degraded because
	// a contributing domain call was served degraded (cached-while-down).
	DegradedStores int
	// DegradedSkips counts probes that found only a degraded entry and
	// refused to serve it.
	DegradedSkips int
	// RejectedStores counts fills that failed admission: cut short at the
	// tuple that crossed MaxEntryBytes.
	RejectedStores int
	// Evictions counts budget evictions.
	Evictions int
	// Invalidations counts entries dropped because a contributing domain
	// call was refreshed, evicted or degraded.
	Invalidations int
	// FlightShares counts probes that attached to an in-progress fill
	// instead of evaluating the subgoal themselves.
	FlightShares int
	// FlightFallbacks counts followers whose flight aborted and who fell
	// back to their own evaluation.
	FlightFallbacks int
	// Saved is the total compute time hits avoided (the sum of serving
	// entries' observed fill costs).
	Saved time.Duration
}

// Entry is one cached intermediate relation. Immutable once stored except
// for the benefit-score fields, which the Cache guards.
type Entry struct {
	// Key is the canonical subgoal key (key.go).
	Key string
	// Tuples are the relation's rows — the ground values of the subgoal's
	// argument positions, one row per answer, preserving multiplicity and
	// emission order (the engine does no duplicate elimination).
	Tuples [][]term.Value
	// Inputs are the domain-call keys that contributed answers to the
	// fill; any of them being refreshed, evicted or degraded invalidates
	// the entry.
	Inputs []string
	// Degraded marks a relation built while a contributing source was
	// down. Degraded entries are kept (visible in /debug/memo) but never
	// served.
	Degraded bool
	// Cost is the observed cost of the fill that produced the relation:
	// what a hit on this entry avoids.
	Cost  domain.CostVector
	Bytes int

	// Benefit score, guarded by Cache.scoreMu: score decays by
	// Config.Decay per cache operation and grows by the avoided cost on
	// every hit.
	score     float64
	scoreTick int64
	lastUsed  int64
}

// Cache is the rule-level memo cache. Safe for concurrent use by parallel
// query branches.
type Cache struct {
	cfg Config

	// store is the sharded entry map, which also enforces the entry/byte
	// budgets (pickVictim, evicted).
	store *shardmap.Map[*Entry]
	// tick is the operation counter that drives score decay and recency.
	tick atomic.Int64

	// Tallies, bumped at the event site and read by Stats and the registry.
	hits, misses, stores, degradedStores, degradedSkips, rejectedStores obs.Counter
	evictions, invalidations, flightShares, flightFallbacks, savedNS    obs.Counter

	// scoreMu guards the entries' benefit-score fields.
	scoreMu sync.Mutex

	// invMu guards the reverse index from domain-call keys to the entries
	// that depend on them.
	invMu    sync.Mutex
	inputIdx map[string]map[string]*Entry

	// flightMu guards the in-progress fill index.
	flightMu sync.Mutex
	flights  map[string]*flight

	hookMu sync.RWMutex
	// onSavings credits a hit's avoided cost to an external ledger (the
	// mediator wires it to the CIM savings ledger's "(memo)" bucket).
	onSavings func(saved time.Duration)
}

// New builds a memo cache.
func New(cfg Config) *Cache {
	c := &Cache{
		cfg:      cfg.normalized(),
		inputIdx: make(map[string]map[string]*Entry),
		flights:  make(map[string]*flight),
	}
	c.store = shardmap.New(func(e *Entry) int { return e.Bytes },
		c.cfg.MaxEntries, c.cfg.MaxBytes, c.pickVictim, c.evicted)
	return c
}

// SetObserver attaches the cache's tallies to the observer's metrics
// registry: the hermes_memo_* families are declared here and nowhere else.
// The occupancy gauges read the store at scrape time.
func (c *Cache) SetObserver(o *obs.Observer) {
	r := o.Registry()
	r.AttachCounter("hermes_memo_hits_total", "IDB subgoals served by replaying a memoized intermediate relation", c.hits.Value)
	r.AttachCounter("hermes_memo_misses_total", "memo probes that fell through to subgoal evaluation", c.misses.Value)
	r.AttachCounter("hermes_memo_stores_total", "intermediate relations admitted into the memo cache", c.stores.Value)
	r.AttachCounter("hermes_memo_degraded_stores_total", "memo entries admitted in quarantine because a contributing source call was degraded", c.degradedStores.Value)
	r.AttachCounter("hermes_memo_degraded_skips_total", "memo probes that found only a quarantined degraded entry and re-evaluated", c.degradedSkips.Value)
	r.AttachCounter("hermes_memo_evictions_total", "memo entries evicted by the benefit-driven policy", c.evictions.Value)
	r.AttachCounter("hermes_memo_invalidations_total", "memo entries dropped because a contributing domain call was refreshed, evicted, or degraded", c.invalidations.Value)
	r.AttachCounter("hermes_memo_saved_ms_total", "estimated milliseconds of re-evaluation avoided by memo hits", func() int64 { return time.Duration(c.savedNS.Value()).Milliseconds() })
	r.AttachCounter("hermes_memo_flight_shares_total", "concurrent identical subgoals that shared one in-flight memo fill", c.flightShares.Value)
	r.AttachCounter("hermes_memo_flight_fallbacks_total", "memo flight followers that re-evaluated after their leader aborted", c.flightFallbacks.Value)
	r.AttachGauge("hermes_memo_entries", "intermediate relations currently memoized", func() float64 { return float64(c.store.Len()) })
	r.AttachGauge("hermes_memo_bytes", "bytes of memoized intermediate relations", func() float64 { return float64(c.store.Bytes()) })
}

// SetSavingsHook installs the external savings ledger credit: called once
// per hit with its avoided cost.
func (c *Cache) SetSavingsHook(fn func(saved time.Duration)) {
	c.hookMu.Lock()
	defer c.hookMu.Unlock()
	c.onSavings = fn
}

func (c *Cache) savingsHook() func(time.Duration) {
	c.hookMu.RLock()
	defer c.hookMu.RUnlock()
	return c.onSavings
}

// Stats returns the activity counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:            int(c.hits.Value()),
		Misses:          int(c.misses.Value()),
		Stores:          int(c.stores.Value()),
		DegradedStores:  int(c.degradedStores.Value()),
		DegradedSkips:   int(c.degradedSkips.Value()),
		RejectedStores:  int(c.rejectedStores.Value()),
		Evictions:       int(c.evictions.Value()),
		Invalidations:   int(c.invalidations.Value()),
		FlightShares:    int(c.flightShares.Value()),
		FlightFallbacks: int(c.flightFallbacks.Value()),
		Saved:           time.Duration(c.savedNS.Value()),
	}
}

// Len returns the number of cached relations.
func (c *Cache) Len() int { return c.store.Len() }

// Bytes returns the total cached tuple bytes.
func (c *Cache) Bytes() int { return c.store.Bytes() }

// LookupCost is the clock cost the engine charges per probe.
func (c *Cache) LookupCost() time.Duration { return c.cfg.LookupCost }

// PerTupleCost is the clock cost the engine charges per replayed tuple.
func (c *Cache) PerTupleCost() time.Duration { return c.cfg.PerTuple }

// ProbeResult is the outcome of consulting the memo for a subgoal
// occurrence: exactly one field is non-nil.
type ProbeResult struct {
	// Entry is a committed, non-degraded relation to replay (hit).
	Entry *Entry
	// Reader follows an in-progress fill of the same key started by a
	// concurrent occurrence.
	Reader *FlightReader
	// Rec means this occurrence leads the fill: evaluate the subgoal,
	// record through Rec, and Commit or Abort.
	Rec *Recording
}

// Probe consults the cache for key. A hit bumps the entry's benefit score
// and credits the savings ledger; a miss either attaches to an in-flight
// fill of the same key or makes the caller the fill's leader.
func (c *Cache) Probe(key string) ProbeResult {
	now := c.tick.Add(1)
	if e, ok := c.store.Get(key); ok {
		if !e.Degraded {
			saved := e.Cost.TAll
			c.credit(e, saved, now)
			c.hits.Inc()
			c.savedNS.Add(int64(saved))
			if hook := c.savingsHook(); hook != nil {
				hook(saved)
			}
			return ProbeResult{Entry: e}
		}
		c.degradedSkips.Inc()
	}
	c.misses.Inc()
	c.flightMu.Lock()
	if f := c.flights[key]; f != nil {
		c.flightMu.Unlock()
		c.flightShares.Inc()
		return ProbeResult{Reader: &FlightReader{c: c, f: f}}
	}
	f := &flight{}
	c.flights[key] = f
	c.flightMu.Unlock()
	return ProbeResult{Rec: &Recording{c: c, key: key, f: f}}
}

// Serveable reports whether a probe for key would be a hit right now
// (committed, non-degraded entry present), without touching scores or
// stats. Introspection for tests and chaos assertions.
func (c *Cache) Serveable(key string) bool {
	e, ok := c.store.Get(key)
	return ok && !e.Degraded
}

// EstimateServe reports whether key is currently serveable and, if so,
// how many tuples a replay would emit. Like Serveable it bypasses the
// probe path entirely — no stats, no score credit, no single-flight —
// because its caller is the *cost estimator*, which must be free to
// price candidate plans without perturbing the cache's benefit
// accounting. Degraded entries report a miss: the engine would not
// serve them either.
func (c *Cache) EstimateServe(key string) (tuples int, ok bool) {
	e, got := c.store.Get(key)
	if !got || e.Degraded {
		return 0, false
	}
	return len(e.Tuples), true
}

// SnapshotEntries returns the cached relations for introspection (debug
// views, chaos assertions). The entries are shared; callers must not
// mutate them.
func (c *Cache) SnapshotEntries() []*Entry { return c.store.Snapshot() }

// credit bumps an entry's decayed benefit score and recency.
func (c *Cache) credit(e *Entry, saved time.Duration, now int64) {
	c.scoreMu.Lock()
	e.score = c.decayedScoreLocked(e, now) + float64(saved)/float64(time.Millisecond)
	e.scoreTick = now
	e.lastUsed = now
	c.scoreMu.Unlock()
}

// decayedScoreLocked reads an entry's score as of tick now. Callers hold
// scoreMu.
func (c *Cache) decayedScoreLocked(e *Entry, now int64) float64 {
	dt := now - e.scoreTick
	if dt <= 0 || c.cfg.Decay == 1 {
		return e.score
	}
	return e.score * math.Pow(c.cfg.Decay, float64(dt))
}

// InvalidateInput drops every cached relation that recorded callKey as a
// contributing domain call. The CIM fires it when an entry for that call
// is refreshed, evicted or served degraded.
func (c *Cache) InvalidateInput(callKey string) {
	c.invMu.Lock()
	deps := c.inputIdx[callKey]
	if len(deps) == 0 {
		c.invMu.Unlock()
		return
	}
	delete(c.inputIdx, callKey)
	victims := make([]*Entry, 0, len(deps))
	for _, e := range deps {
		victims = append(victims, e)
		c.deindexLocked(e) // its other inputs' dependency sets
	}
	c.invMu.Unlock()
	for _, e := range victims {
		if c.store.RemoveIf(e.Key, e) {
			c.invalidations.Inc()
		}
	}
}

// admit stores a committed fill's entry, indexes its inputs, and enforces
// the budgets.
func (c *Cache) admit(e *Entry) {
	now := c.tick.Add(1)
	c.scoreMu.Lock()
	// Seed the score with the fill's own cost so a fresh expensive entry
	// is not the first eviction victim.
	e.score = float64(e.Cost.TAll) / float64(time.Millisecond)
	e.scoreTick = now
	e.lastUsed = now
	c.scoreMu.Unlock()
	old, replaced := c.store.Put(e.Key, e)
	c.invMu.Lock()
	if replaced {
		c.deindexLocked(old)
	}
	for _, in := range e.Inputs {
		m := c.inputIdx[in]
		if m == nil {
			m = make(map[string]*Entry)
			c.inputIdx[in] = m
		}
		m[e.Key] = e
	}
	c.invMu.Unlock()
	c.stores.Inc()
	if e.Degraded {
		c.degradedStores.Inc()
	}
	c.store.Evict()
}

// deindexLocked removes a replaced, evicted or invalidated entry's
// reverse-index references. Callers hold invMu.
func (c *Cache) deindexLocked(e *Entry) {
	for _, in := range e.Inputs {
		if m := c.inputIdx[in]; m != nil {
			if m[e.Key] == e {
				delete(m, e.Key)
			}
			if len(m) == 0 {
				delete(c.inputIdx, in)
			}
		}
	}
}

// pickVictim chooses the entry with the lowest decayed benefit score (ties
// broken least-recently-used) from a store snapshot; the store's budget
// loop calls it while over budget.
func (c *Cache) pickVictim(snap []*Entry) (string, *Entry) {
	now := c.tick.Load()
	var victim *Entry
	var victimScore float64
	c.scoreMu.Lock()
	for _, e := range snap {
		s := c.decayedScoreLocked(e, now)
		if victim == nil || s < victimScore ||
			(s == victimScore && e.lastUsed < victim.lastUsed) {
			victim, victimScore = e, s
		}
	}
	c.scoreMu.Unlock()
	return victim.Key, victim
}

// evicted unhooks an entry the budget loop removed.
func (c *Cache) evicted(_ string, e *Entry) {
	c.invMu.Lock()
	c.deindexLocked(e)
	c.invMu.Unlock()
	c.evictions.Inc()
}

// Item is one published tuple of an in-progress fill, stamped with the
// leader clock's reading when it was recorded.
type Item = spool.Item[[]term.Value]

// ReadState is the outcome of FlightReader.Next.
type ReadState int

// Flight read outcomes.
const (
	// ReadItem delivered a tuple.
	ReadItem ReadState = iota
	// ReadEndCommitted means the fill completed; Result carries its inputs.
	ReadEndCommitted
	// ReadEndAborted means the leader abandoned the fill (error, early
	// close, or a relation over MaxEntryBytes); the follower must evaluate
	// the remainder itself.
	ReadEndAborted
	// ReadCancelled means the follower's own context was cancelled.
	ReadCancelled
)

// errAborted settles the log of a fill its leader abandoned.
var errAborted = errors.New("memo: fill aborted")

// flight is one in-progress fill: the leader publishes tuples into log as
// it records them and followers replay it. inputs and degraded are written
// by Commit before it settles the log and read only by followers that have
// observed the settle, so the log's mutex orders them.
type flight struct {
	log      spool.Log[[]term.Value]
	inputs   []string
	degraded bool
}

// FlightReader replays an in-progress fill for a follower occurrence.
type FlightReader struct {
	c        *Cache
	f        *flight
	idx      int
	fellBack bool
}

// Next returns the reader's next event, waiting for the leader to publish
// when the follower has caught up. cancel, when non-nil, aborts the wait
// (ReadCancelled). The leader never waits on followers, so progress only
// depends on the leader's own consumer.
func (r *FlightReader) Next(cancel <-chan struct{}) (Item, ReadState) {
	it, st := r.f.log.Wait(r.idx, cancel)
	switch st {
	case spool.Ready:
		r.idx++
		return it, ReadItem
	case spool.Pending:
		return Item{}, ReadCancelled
	}
	if _, err, _ := r.f.log.End(); err == nil {
		return Item{}, ReadEndCommitted
	}
	if !r.fellBack {
		r.fellBack = true
		r.c.flightFallbacks.Inc()
	}
	return Item{}, ReadEndAborted
}

// Result returns the committed fill's inputs, degraded flag and end time.
// Valid after Next returned ReadEndCommitted.
func (r *FlightReader) Result() (inputs []string, degraded bool, endAt time.Duration) {
	endAt, _, _ = r.f.log.End()
	return r.f.inputs, r.f.degraded, endAt
}

// Recording is the leader side of a fill: the engine records every tuple
// the subgoal emits and every domain call it issues, then commits on
// natural exhaustion or aborts on error/early close.
type Recording struct {
	c   *Cache
	key string
	f   *flight

	mu       sync.Mutex
	inputs   []string
	inputSet map[string]bool
	degraded bool
	bytes    int
	done     bool
}

// Note records a contributing domain call (thread-safe: parallel branches
// under the subgoal note concurrently). degraded marks a call served from
// cache because its source was down.
func (rec *Recording) Note(callKey string, degraded bool) {
	rec.mu.Lock()
	if rec.inputSet == nil {
		rec.inputSet = make(map[string]bool)
	}
	if !rec.inputSet[callKey] {
		rec.inputSet[callKey] = true
		rec.inputs = append(rec.inputs, callKey)
	}
	if degraded {
		rec.degraded = true
	}
	rec.mu.Unlock()
}

// Add records one emitted tuple and publishes it to any followers. at is
// the leader clock's reading. It reports whether the fill is still being
// recorded: the tuple that takes the relation past MaxEntryBytes aborts the
// fill instead (counted once as a rejected store), so a relation that could
// never be admitted is not buffered for the rest of its evaluation.
func (rec *Recording) Add(vals []term.Value, at time.Duration) bool {
	rec.mu.Lock()
	if rec.done {
		rec.mu.Unlock()
		return false
	}
	for _, v := range vals {
		rec.bytes += term.SizeBytes(v)
	}
	oversized := rec.c.cfg.MaxEntryBytes > 0 && rec.bytes > rec.c.cfg.MaxEntryBytes
	rec.mu.Unlock()
	if oversized {
		if rec.finish() {
			rec.c.rejectedStores.Inc()
			rec.f.log.Settle(errAborted, at)
		}
		return false
	}
	rec.f.log.Push(vals, at)
	return true
}

// finish marks the recording done and frees the key's flight slot for the
// next prober. It reports false when the recording was already finished.
func (rec *Recording) finish() bool {
	rec.mu.Lock()
	if rec.done {
		rec.mu.Unlock()
		return false
	}
	rec.done = true
	rec.mu.Unlock()
	rec.c.flightMu.Lock()
	if rec.c.flights[rec.key] == rec.f {
		delete(rec.c.flights, rec.key)
	}
	rec.c.flightMu.Unlock()
	return true
}

// Commit finishes the fill at natural exhaustion: the published tuples
// become a cache entry (when admitted) and followers see a committed end.
func (rec *Recording) Commit(at time.Duration, cost domain.CostVector) {
	if !rec.finish() {
		return
	}
	rec.mu.Lock()
	inputs, degraded, bytes := rec.inputs, rec.degraded, rec.bytes
	rec.mu.Unlock()

	tuples := rec.f.log.Values()
	// Settle after snapshotting so followers never see a half-built state.
	rec.f.inputs, rec.f.degraded = inputs, degraded
	rec.f.log.Settle(nil, at)

	rec.c.admit(&Entry{
		Key:      rec.key,
		Tuples:   tuples,
		Inputs:   inputs,
		Degraded: degraded,
		Cost:     cost,
		Bytes:    bytes,
	})
}

// Abort abandons the fill (subgoal error, or the consumer closed the
// stream before exhaustion): nothing is stored, and followers fall back to
// their own evaluation.
func (rec *Recording) Abort(at time.Duration) {
	if rec.finish() {
		rec.f.log.Settle(errAborted, at)
	}
}
