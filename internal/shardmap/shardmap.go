// Package shardmap is the one sharded store under both caches (CIM entries
// and memo relations): a string-keyed map split across lock shards, with
// exact entry/byte tallies and the budget-eviction loop that keeps them
// under a configured bound. What makes a good victim, and what else must
// be unhooked when one goes, stay with the cache that owns the map.
package shardmap

import (
	"sync"
	"sync/atomic"
)

// numShards is the lock-shard count. 16 keeps contention negligible at the
// parallelism the engine runs (bounded by core.Options.Parallelism, default
// GOMAXPROCS) without bloating the zero-entry footprint.
const numShards = 16

// Map is the sharded map. Each shard has its own RWMutex, so concurrent
// lookups from parallel branches do not serialize behind one lock. Values
// are compared with == (V is typically an entry pointer): replacement swaps
// the value, and RemoveIf only removes the value it was shown.
type Map[V comparable] struct {
	shards [numShards]shard[V]
	size   func(V) int
	count  atomic.Int64
	bytes  atomic.Int64

	// Budget enforcement (Evict). evictMu admits one evictor at a time.
	maxEntries, maxBytes int
	pick                 func([]V) (string, V)
	evicted              func(string, V)
	evictMu              sync.Mutex
}

type shard[V comparable] struct {
	mu sync.RWMutex
	m  map[string]V
}

// New builds a map whose Bytes tally sums size(v) over the stored values.
// maxEntries/maxBytes are the budgets Evict enforces (0 = unlimited): while
// either is exceeded, pick chooses a victim and its key from a non-empty
// snapshot, and evicted runs for every victim actually removed.
func New[V comparable](size func(V) int, maxEntries, maxBytes int, pick func([]V) (string, V), evicted func(string, V)) *Map[V] {
	m := &Map[V]{size: size, maxEntries: maxEntries, maxBytes: maxBytes, pick: pick, evicted: evicted}
	for i := range m.shards {
		m.shards[i].m = make(map[string]V)
	}
	return m
}

// shardIdx hashes a key to its shard (FNV-1a), a string and its bytes
// alike.
func shardIdx[K string | []byte](key K) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % numShards)
}

// Get returns the value stored under key.
func (m *Map[V]) Get(key string) (V, bool) {
	sh := &m.shards[shardIdx(key)]
	sh.mu.RLock()
	v, ok := sh.m[key]
	sh.mu.RUnlock()
	return v, ok
}

// GetBytes is Get for a key held in bytes, such as one built in a stack
// buffer: the lookup converts it without copying it into a string.
func (m *Map[V]) GetBytes(key []byte) (V, bool) {
	sh := &m.shards[shardIdx(key)]
	sh.mu.RLock()
	v, ok := sh.m[string(key)]
	sh.mu.RUnlock()
	return v, ok
}

// Put inserts or replaces the value for key and returns the replaced one
// (replaced=false on a fresh insert), so the owner can tell refreshes from
// first stores.
func (m *Map[V]) Put(key string, v V) (old V, replaced bool) {
	sh := &m.shards[shardIdx(key)]
	sh.mu.Lock()
	old, replaced = sh.m[key]
	sh.m[key] = v
	sh.mu.Unlock()
	if replaced {
		m.bytes.Add(int64(-m.size(old)))
	} else {
		m.count.Add(1)
	}
	m.bytes.Add(int64(m.size(v)))
	return old, replaced
}

// RemoveIf deletes key only while it still maps to v (eviction and
// invalidation race with replacement), reporting whether it removed
// anything.
func (m *Map[V]) RemoveIf(key string, v V) bool {
	sh := &m.shards[shardIdx(key)]
	sh.mu.Lock()
	cur, ok := sh.m[key]
	if !ok || cur != v {
		sh.mu.Unlock()
		return false
	}
	delete(sh.m, key)
	sh.mu.Unlock()
	m.count.Add(-1)
	m.bytes.Add(int64(-m.size(v)))
	return true
}

// Snapshot returns the current values. Scans (invariant matching, victim
// selection, persistence, debug views) work on the snapshot so no shard
// lock is held while per-entry work is done or charged to a clock.
func (m *Map[V]) Snapshot() []V {
	var out []V
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, v := range sh.m {
			out = append(out, v)
		}
		sh.mu.RUnlock()
	}
	return out
}

// Replace swaps in a whole new value set (cache load).
func (m *Map[V]) Replace(values map[string]V) {
	var count, bytes int64
	var byShard [numShards]map[string]V
	for i := range byShard {
		byShard[i] = make(map[string]V)
	}
	for k, v := range values {
		byShard[shardIdx(k)][k] = v
		count++
		bytes += int64(m.size(v))
	}
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.m = byShard[i]
		sh.mu.Unlock()
	}
	m.count.Store(count)
	m.bytes.Store(bytes)
}

// Clear drops every value.
func (m *Map[V]) Clear() { m.Replace(nil) }

// Len returns the number of stored values.
func (m *Map[V]) Len() int { return int(m.count.Load()) }

// Bytes returns the summed size of the stored values.
func (m *Map[V]) Bytes() int { return int(m.bytes.Load()) }

func (m *Map[V]) overBudget() bool {
	return (m.maxEntries > 0 && m.Len() > m.maxEntries) ||
		(m.maxBytes > 0 && m.Bytes() > m.maxBytes)
}

// Evict enforces the budgets. Victim selection scans a snapshot, so no
// shard lock is held across the scan; removal re-checks that the victim is
// still current, and only then is it reported evicted.
func (m *Map[V]) Evict() {
	if !m.overBudget() {
		return
	}
	m.evictMu.Lock()
	defer m.evictMu.Unlock()
	for m.overBudget() {
		snap := m.Snapshot()
		if len(snap) == 0 {
			return
		}
		if key, victim := m.pick(snap); m.RemoveIf(key, victim) {
			m.evicted(key, victim)
		}
	}
}
