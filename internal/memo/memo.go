// Package memo is the rule-level memo cache: where the CIM (internal/cim)
// caches the answers of ground *domain calls*, the memo caches whole
// *intermediate relations* — the answer tuples of an IDB subgoal occurrence
// (predicate + adornment + bound values + free-variable structure, key.go).
// The engine consults it before re-expanding a subgoal, so repeated traffic
// skips not just the source calls but the joins, unions and per-rule
// bookkeeping above them ("Don't Trash your Intermediate Results, Cache
// 'em", Roy et al.). Eviction is least-recently-used, the CIM's default
// rule; admission is by size alone (maxEntryBytes). A hit's avoided cost
// is counted here (Stats.Saved) and nowhere else.
//
// Soundness rests on one storage rule:
//
//   - Every fill records the set of domain-call keys that contributed to
//     it (Inputs). The CIM fires Cache.InvalidateInput whenever one of
//     those calls is refreshed, evicted or served degraded, and the memo
//     drops every dependent entry.
//   - A fill stores its relation only if none of the calls it read was
//     invalidated or served degraded while the fill ran. A relation built
//     from cached-while-down answers, or from answers replaced under it,
//     is never stored; the next evaluation fills it afresh.
//
// Concurrent fills of one key each evaluate for themselves: the CIM under
// them coalesces their source calls or serves them as hits.
package memo

import (
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/shardmap"
	"hermes/internal/term"
)

// Config tunes the memo cache. MaxEntries/MaxBytes zero mean unlimited;
// zero costs charge nothing.
type Config struct {
	// MaxEntries bounds the number of cached relations (0 = unlimited).
	MaxEntries int
	// MaxBytes bounds the total cached tuple bytes (0 = unlimited).
	MaxBytes int
	// LookupCost is charged to the query clock per memo probe.
	LookupCost time.Duration
	// PerTuple is charged per tuple replayed from a memo entry.
	PerTuple time.Duration
}

const (
	defaultMaxEntries = 512
	defaultMaxBytes   = 8 << 20
	// maxEntryBytes caps one relation: the tuple that takes a fill past it
	// ends the fill unstored.
	maxEntryBytes = 256 << 10
	// invRing is how many recent invalidations Commit can check a fill's
	// inputs against; a fill that outlived more is not stored.
	invRing = 64
)

// DefaultConfig returns hermesd's configuration: bounded budgets and no
// modelled probe or replay cost.
func DefaultConfig() Config {
	return Config{MaxEntries: defaultMaxEntries, MaxBytes: defaultMaxBytes}
}

// Stats count memo activity: a view of the cache's tallies, one atomic read
// per field and not one critical section — read it after the workload
// quiesces when the fields must add up.
type Stats struct {
	// Hits are probes served from a committed entry.
	Hits int
	// Misses are probes that found nothing and so started a fill.
	Misses int
	// Stores counts committed fills admitted into the cache.
	Stores int
	// RejectedStores counts fills that failed admission: cut short at the
	// tuple that crossed maxEntryBytes.
	RejectedStores int
	// Evictions counts budget evictions.
	Evictions int
	// Invalidations counts entries dropped, and committed fills not
	// stored, because a contributing domain call was refreshed, evicted or
	// degraded.
	Invalidations int
	// Saved is the total compute time hits avoided (the sum of serving
	// entries' observed fill costs).
	Saved time.Duration
}

// Entry is one cached intermediate relation. Immutable once stored except
// for the recency stamp, which is atomic.
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
	// Cost is the observed cost of the fill that produced the relation:
	// what a hit on this entry avoids.
	Cost  domain.CostVector
	Bytes int

	// lastUsed is the tick of the entry's store or latest hit.
	lastUsed atomic.Int64
}

// Cache is the rule-level memo cache. Safe for concurrent use by parallel
// query branches.
type Cache struct {
	cfg Config

	// store is the sharded entry map, which also enforces the entry/byte
	// budgets (pickVictim, evicted).
	store *shardmap.Map[*Entry]
	// tick stamps recency.
	tick atomic.Int64

	// Tallies, bumped at the event site and read by Stats and the registry.
	hits, misses, stores, rejectedStores obs.Counter
	evictions, invalidations, savedNS    obs.Counter

	// invMu guards the reverse index from domain-call keys to the entries
	// that depend on them, and the ring of recent invalidations.
	invMu    sync.Mutex
	inputIdx map[string]map[string]*Entry
	// invGen numbers InvalidateInput calls; it is written under invMu and
	// read without it when a fill starts. invLog[g%invRing] is the call
	// key of invalidation g.
	invGen atomic.Uint64
	invLog [invRing]string
}

// New builds a memo cache.
func New(cfg Config) *Cache {
	c := &Cache{cfg: cfg, inputIdx: make(map[string]map[string]*Entry)}
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
	r.AttachCounter("hermes_memo_evictions_total", "memo entries evicted least-recently-used", c.evictions.Value)
	r.AttachCounter("hermes_memo_invalidations_total", "memo entries dropped because a contributing domain call was refreshed, evicted, or degraded", c.invalidations.Value)
	r.AttachCounter("hermes_memo_saved_ms_total", "estimated milliseconds of re-evaluation avoided by memo hits", func() int64 { return time.Duration(c.savedNS.Value()).Milliseconds() })
	r.AttachGauge("hermes_memo_entries", "intermediate relations currently memoized", func() float64 { return float64(c.store.Len()) })
	r.AttachGauge("hermes_memo_bytes", "bytes of memoized intermediate relations", func() float64 { return float64(c.store.Bytes()) })
}

// Stats returns the activity counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:           int(c.hits.Value()),
		Misses:         int(c.misses.Value()),
		Stores:         int(c.stores.Value()),
		RejectedStores: int(c.rejectedStores.Value()),
		Evictions:      int(c.evictions.Value()),
		Invalidations:  int(c.invalidations.Value()),
		Saved:          time.Duration(c.savedNS.Value()),
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
	// Entry is a committed relation to replay (hit).
	Entry *Entry
	// Rec means this occurrence fills the key: evaluate the subgoal,
	// record through Rec, and Commit or Abort.
	Rec *Recording
}

// Probe consults the cache for key. A hit stamps the entry's recency and
// counts its fill cost as saved; a miss starts a fill.
func (c *Cache) Probe(key string) ProbeResult {
	if e, ok := c.store.Get(key); ok {
		e.lastUsed.Store(c.tick.Add(1))
		c.hits.Inc()
		c.savedNS.Add(int64(e.Cost.TAll))
		return ProbeResult{Entry: e}
	}
	c.misses.Inc()
	return ProbeResult{Rec: &Recording{c: c, key: key, startGen: c.invGen.Load()}}
}

// Serveable reports whether a probe for key would be a hit right now,
// without touching recency or stats. Introspection for tests.
func (c *Cache) Serveable(key string) bool {
	_, ok := c.store.Get(key)
	return ok
}

// EstimateServe reports whether key is currently serveable and, if so,
// how many tuples a replay would emit. Like Serveable it bypasses the
// probe path entirely — no stats, no recency stamp — because its caller
// is the *cost estimator*, which must be free to price candidate plans
// without perturbing what the cache evicts.
func (c *Cache) EstimateServe(key string) (tuples int, ok bool) {
	e, ok := c.store.Get(key)
	if !ok {
		return 0, false
	}
	return len(e.Tuples), true
}

// InvalidateInput drops every cached relation that recorded callKey as a
// contributing domain call, and logs the call so that a fill in progress
// that read it is not stored. The CIM fires it when an entry for that call
// is refreshed, evicted or served degraded.
func (c *Cache) InvalidateInput(callKey string) {
	c.invMu.Lock()
	defer c.invMu.Unlock()
	gen := c.invGen.Add(1)
	c.invLog[gen%invRing] = callKey
	deps := c.inputIdx[callKey]
	delete(c.inputIdx, callKey)
	for _, e := range deps {
		c.deindexLocked(e) // its other inputs' dependency sets
		if c.store.RemoveIf(e.Key, e) {
			c.invalidations.Inc()
		}
	}
}

// admit stores a committed fill's entry and indexes its inputs unless the
// fill is spoiled, or one of its inputs was invalidated since the fill
// started. The check, the store and the index share one invMu critical
// section, so an invalidation either is seen by the check or finds the
// entry indexed.
func (c *Cache) admit(rec *Recording, e *Entry) {
	e.lastUsed.Store(c.tick.Add(1))
	c.invMu.Lock()
	if rec.spoiled || c.invalidatedSinceLocked(rec) {
		c.invMu.Unlock()
		c.invalidations.Inc()
		return
	}
	if old, replaced := c.store.Put(e.Key, e); replaced {
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
	c.store.Evict()
}

// invalidatedSinceLocked reports whether an input of rec may have been
// invalidated after the fill started: the ring names one, or more
// invalidations happened than the ring keeps. Callers hold invMu.
func (c *Cache) invalidatedSinceLocked(rec *Recording) bool {
	gen := c.invGen.Load()
	if gen-rec.startGen > invRing {
		return true
	}
	for g := rec.startGen + 1; g <= gen; g++ {
		if rec.inputSet[c.invLog[g%invRing]] {
			return true
		}
	}
	return false
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

// pickVictim chooses the least-recently-used entry from a store snapshot;
// the store's budget loop calls it while over budget.
func (c *Cache) pickVictim(snap []*Entry) (string, *Entry) {
	victim := snap[0]
	for _, e := range snap[1:] {
		if e.lastUsed.Load() < victim.lastUsed.Load() {
			victim = e
		}
	}
	return victim.Key, victim
}

// evicted unhooks an entry the budget loop removed.
func (c *Cache) evicted(_ string, e *Entry) {
	c.invMu.Lock()
	c.deindexLocked(e)
	c.invMu.Unlock()
	c.evictions.Inc()
}

// Recording is one fill in progress: the engine records every tuple the
// subgoal emits and every domain call it issues, then commits on natural
// exhaustion or aborts on error or early close.
type Recording struct {
	c        *Cache
	key      string
	startGen uint64 // Cache.invGen when the fill started

	mu       sync.Mutex
	tuples   [][]term.Value
	inputs   []string
	inputSet map[string]bool
	spoiled  bool // a contributing call was served degraded
	bytes    int
	done     bool
}

// Note records a contributing domain call (thread-safe: parallel branches
// under the subgoal note concurrently). degraded marks a call served from
// cache because its source was down, which keeps the fill from being
// stored.
func (rec *Recording) Note(callKey string, degraded bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.done {
		return
	}
	if rec.inputSet == nil {
		rec.inputSet = make(map[string]bool)
	}
	if !rec.inputSet[callKey] {
		rec.inputSet[callKey] = true
		rec.inputs = append(rec.inputs, callKey)
	}
	if degraded {
		rec.spoiled = true
	}
}

// Add records one emitted tuple. It reports whether the fill is still
// being recorded: the tuple that takes the relation past maxEntryBytes
// ends the fill instead (counted once as a rejected store), so a relation
// that could never be admitted is not buffered for the rest of its
// evaluation.
func (rec *Recording) Add(vals []term.Value) bool {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.done {
		return false
	}
	for _, v := range vals {
		rec.bytes += term.SizeBytes(v)
	}
	if rec.bytes > maxEntryBytes {
		rec.done, rec.tuples = true, nil
		rec.c.rejectedStores.Inc()
		return false
	}
	rec.tuples = append(rec.tuples, vals)
	return true
}

// Commit finishes the fill at natural exhaustion: the recorded tuples
// become a cache entry, unless a contributing call was served degraded or
// invalidated while the fill ran — such a fill counts as one invalidation
// and stores nothing.
func (rec *Recording) Commit(cost domain.CostVector) {
	rec.mu.Lock()
	if rec.done {
		rec.mu.Unlock()
		return
	}
	rec.done = true
	rec.mu.Unlock()
	rec.c.admit(rec, &Entry{
		Key:    rec.key,
		Tuples: rec.tuples,
		Inputs: rec.inputs,
		Cost:   cost,
		Bytes:  rec.bytes,
	})
}

// Abort abandons the fill (subgoal error, or the consumer closed the
// stream before exhaustion): nothing is stored.
func (rec *Recording) Abort() {
	rec.mu.Lock()
	rec.done, rec.tuples = true, nil
	rec.mu.Unlock()
}
