// Package invindex is the shared invariant discrimination index: a
// by-function index over the registered invariants and over the cached
// calls of the CIM, consulted by every layer that previously scanned
// linearly — the CIM's equality/partial probes and single-flight
// attachment, the rewriter's invariant-aware routing, and the cache-scan
// slow path of candidate search.
//
// The index is keyed on (domain, function, arity), exactly the cheap
// relevance dispatch the matching paths already apply (a template can
// only unify with a call of the same domain, function and arity), so a
// bucket holds precisely the invariants the linear scan would have spent
// a match attempt on and nothing else: consulting the index never
// changes which invariants are tried, only skips the O(N) walk that
// found them. Each registered side additionally carries an
// α-canonicalized argument-shape key (ShapeKey, mirroring the memo's
// key canonicalization) used for bucket introspection and the fuzz
// oracle that proves index lookups never miss a linear-scan candidate.
//
// The index is safe for concurrent use; registration order is preserved
// inside every bucket so matching stays deterministic under the virtual
// clock.
package invindex

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"hermes/internal/domain"
	"hermes/internal/lang"
)

// Key identifies an invariant-side bucket: the relevance class of the
// cheap dispatch check (same domain, function and arity unify or nothing
// does).
type Key struct {
	Domain   string
	Function string
	Arity    int
}

// String renders the bucket key like avis:frames_to_objects/3.
func (k Key) String() string {
	return k.Domain + ":" + k.Function + "/" + strconv.Itoa(k.Arity)
}

// KeyOfCall returns the bucket key of a ground call.
func KeyOfCall(c domain.Call) Key {
	return Key{Domain: c.Domain, Function: c.Function, Arity: len(c.Args)}
}

// KeyOfTemplate returns the bucket key of a call template.
func KeyOfTemplate(t *lang.CallTemplate) Key {
	return Key{Domain: t.Domain, Function: t.Function, Arity: len(t.Args)}
}

// fnKey identifies a cached-call bucket. Cache scans discriminate on
// domain and function only (the historical scan charged per same-function
// entry regardless of arity, with unification rejecting arity mismatches),
// so the entry index must too — it exists to skip the walk over the whole
// store, not to skip entries the scan would have examined.
type fnKey struct {
	domain   string
	function string
}

// ShapeKey is the α-canonicalized argument-structure key of a call
// template: the domain, function and arity followed by one segment per
// argument — the canonical value key for constants, v<i> for bare
// variables numbered in first-occurrence order (so the key captures
// exactly which positions must agree, like memo.AppendKey), and v<i>.path
// for attribute-path terms. Two sides with the same ShapeKey are
// structurally interchangeable up to variable naming.
func ShapeKey(t *lang.CallTemplate) string {
	var b strings.Builder
	b.WriteString(t.Domain)
	b.WriteByte(':')
	b.WriteString(t.Function)
	b.WriteByte('/')
	b.WriteString(strconv.Itoa(len(t.Args)))
	var ids map[string]int
	for _, a := range t.Args {
		b.WriteByte('|')
		if a.IsConst() {
			b.WriteString(a.Const.Key())
			continue
		}
		if ids == nil {
			ids = make(map[string]int)
		}
		id, ok := ids[a.Var]
		if !ok {
			id = len(ids)
			ids[a.Var] = id
		}
		b.WriteByte('v')
		b.WriteString(strconv.Itoa(id))
		for _, p := range a.Path {
			b.WriteByte('.')
			b.WriteString(p)
		}
	}
	return b.String()
}

// callBucket is the insertion-ordered cached-call key list of one
// (domain, function). Removal tombstones in place to keep insertion
// order without O(n) deletes; buckets compact once tombstones dominate.
type callBucket struct {
	keys []string       // insertion order; "" marks a removed slot
	pos  map[string]int // live call key -> index in keys
	dead int
}

func (b *callBucket) add(key string) {
	if _, ok := b.pos[key]; ok {
		return
	}
	b.pos[key] = len(b.keys)
	b.keys = append(b.keys, key)
}

func (b *callBucket) remove(key string) {
	i, ok := b.pos[key]
	if !ok {
		return
	}
	delete(b.pos, key)
	b.keys[i] = ""
	b.dead++
	if b.dead > 16 && b.dead*2 > len(b.keys) {
		live := b.keys[:0]
		for _, k := range b.keys {
			if k != "" {
				b.pos[k] = len(live)
				live = append(live, k)
			}
		}
		b.keys = live
		b.dead = 0
	}
}

// Index is the shared invariant + cached-call discrimination index.
type Index struct {
	invMu sync.RWMutex
	n     int                       // registered invariants
	equal map[Key][]*lang.Invariant // RelEqual invariants by either side's key
	super map[Key][]*lang.Invariant // RelSuperset invariants by Left (superset) key
	// shapes holds, per bucket, the ShapeKey of every side registered
	// there (introspection only; the probe path never touches it).
	shapes map[Key][]string

	callMu sync.RWMutex
	calls  map[fnKey]*callBucket
}

// New returns an empty index.
func New() *Index {
	return &Index{
		equal:  make(map[Key][]*lang.Invariant),
		super:  make(map[Key][]*lang.Invariant),
		shapes: make(map[Key][]string),
		calls:  make(map[fnKey]*callBucket),
	}
}

// AddInvariant registers an invariant. Equality invariants are indexed
// under both sides' keys (equality is matched symmetrically); superset
// invariants under the Left (superset) side only, since a call can only
// be served partial answers when it unifies with the superset side. An
// equality invariant whose sides share a bucket key is registered once
// in that bucket, mirroring the linear scan's one match attempt per
// invariant.
func (ix *Index) AddInvariant(inv *lang.Invariant) {
	ix.invMu.Lock()
	defer ix.invMu.Unlock()
	ix.n++
	switch inv.Rel {
	case lang.RelEqual:
		lk, rk := KeyOfTemplate(&inv.Left), KeyOfTemplate(&inv.Right)
		ix.equal[lk] = append(ix.equal[lk], inv)
		ix.shapes[lk] = append(ix.shapes[lk], ShapeKey(&inv.Left))
		if rk != lk {
			ix.equal[rk] = append(ix.equal[rk], inv)
			ix.shapes[rk] = append(ix.shapes[rk], ShapeKey(&inv.Right))
		}
	case lang.RelSuperset:
		lk := KeyOfTemplate(&inv.Left)
		ix.super[lk] = append(ix.super[lk], inv)
		ix.shapes[lk] = append(ix.shapes[lk], ShapeKey(&inv.Left))
	}
}

// Equalities returns the equality invariants relevant to a call — every
// RelEqual invariant either of whose sides shares the call's (domain,
// function, arity) — in registration order, each exactly once. The
// returned slice header is shared (buckets are append-only), so a probe
// allocates nothing; callers must not mutate it.
func (ix *Index) Equalities(k Key) []*lang.Invariant {
	ix.invMu.RLock()
	bucket := ix.equal[k]
	ix.invMu.RUnlock()
	return bucket
}

// Supersets returns the superset invariants whose superset (Left) side is
// relevant to a call, in registration order. Like Equalities, the slice
// header is shared and must not be mutated.
func (ix *Index) Supersets(k Key) []*lang.Invariant {
	ix.invMu.RLock()
	bucket := ix.super[k]
	ix.invMu.RUnlock()
	return bucket
}

// Len returns the number of registered invariants.
func (ix *Index) Len() int {
	ix.invMu.RLock()
	defer ix.invMu.RUnlock()
	return ix.n
}

// AddCall records a cached call in the entry index (CIM store).
func (ix *Index) AddCall(c domain.Call) {
	k := fnKey{domain: c.Domain, function: c.Function}
	ix.callMu.Lock()
	b := ix.calls[k]
	if b == nil {
		b = &callBucket{pos: make(map[string]int)}
		ix.calls[k] = b
	}
	b.add(c.Key())
	ix.callMu.Unlock()
}

// RemoveCall drops a cached call from the entry index (CIM eviction).
func (ix *Index) RemoveCall(c domain.Call) {
	k := fnKey{domain: c.Domain, function: c.Function}
	ix.callMu.Lock()
	if b := ix.calls[k]; b != nil {
		b.remove(c.Key())
		if len(b.pos) == 0 {
			delete(ix.calls, k)
		}
	}
	ix.callMu.Unlock()
}

// ResetCalls replaces the whole entry index (CIM clear or snapshot load).
func (ix *Index) ResetCalls(calls []domain.Call) {
	fresh := make(map[fnKey]*callBucket)
	for _, c := range calls {
		k := fnKey{domain: c.Domain, function: c.Function}
		b := fresh[k]
		if b == nil {
			b = &callBucket{pos: make(map[string]int)}
			fresh[k] = b
		}
		b.add(c.Key())
	}
	ix.callMu.Lock()
	ix.calls = fresh
	ix.callMu.Unlock()
}

// CallKeys returns the cached call keys of one (domain, function) in
// insertion order — the candidate set a cache scan for a non-ground
// invariant side must examine. The copy is taken under the read lock so
// no lock is held while the caller charges per-entry scan costs.
func (ix *Index) CallKeys(dom, fn string) []string {
	k := fnKey{domain: dom, function: fn}
	ix.callMu.RLock()
	b := ix.calls[k]
	if b == nil || len(b.pos) == 0 {
		ix.callMu.RUnlock()
		return nil
	}
	out := make([]string, 0, len(b.pos))
	for _, key := range b.keys {
		if key != "" {
			out = append(out, key)
		}
	}
	ix.callMu.RUnlock()
	return out
}

// BucketInfo is one invariant bucket's introspection row for the debug
// endpoint: the relevance key, the invariants registered under it per
// relation, the distinct argument shapes among them, and how many calls
// of the bucket's function the cache currently holds.
type BucketInfo struct {
	Key         Key
	Equalities  []*lang.Invariant
	Supersets   []*lang.Invariant
	Shapes      int
	CachedCalls int
}

// Buckets returns every invariant bucket, sorted by key.
func (ix *Index) Buckets() []BucketInfo {
	ix.invMu.RLock()
	keys := make(map[Key]bool, len(ix.equal)+len(ix.super))
	for k := range ix.equal {
		keys[k] = true
	}
	for k := range ix.super {
		keys[k] = true
	}
	out := make([]BucketInfo, 0, len(keys))
	for k := range keys {
		info := BucketInfo{
			Key:        k,
			Equalities: append([]*lang.Invariant(nil), ix.equal[k]...),
			Supersets:  append([]*lang.Invariant(nil), ix.super[k]...),
		}
		shapes := map[string]bool{}
		for _, s := range ix.shapes[k] {
			shapes[s] = true
		}
		info.Shapes = len(shapes)
		out = append(out, info)
	}
	ix.invMu.RUnlock()

	ix.callMu.RLock()
	for i := range out {
		if b := ix.calls[fnKey{domain: out[i].Key.Domain, function: out[i].Key.Function}]; b != nil {
			out[i].CachedCalls = len(b.pos)
		}
	}
	ix.callMu.RUnlock()

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		return a.Arity < b.Arity
	})
	return out
}

// Relevant reports whether a template passes the cheap dispatch check
// against a call: same domain, function and arity. It is the linear
// scan's filter, exported so differential tests can state the index
// oracle ("a bucket holds exactly the relevant invariants") in one
// place.
func Relevant(t *lang.CallTemplate, c domain.Call) bool {
	return t.Domain == c.Domain && t.Function == c.Function && len(t.Args) == len(c.Args)
}
