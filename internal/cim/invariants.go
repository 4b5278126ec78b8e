package cim

import (
	"strconv"
	"sync"

	"hermes/internal/domain"
	"hermes/internal/invindex"
	"hermes/internal/lang"
	"hermes/internal/term"
)

// unifyTemplate matches a call template against a ground call, extending
// the substitution. It fails unless domain, function and arity match and
// every argument unifies.
func unifyTemplate(s term.Subst, t *lang.CallTemplate, c domain.Call) (term.Subst, bool) {
	if t.Domain != c.Domain || t.Function != c.Function || len(t.Args) != len(c.Args) {
		return term.Subst{}, false
	}
	return s.UnifyAll(t.Args, c.Args)
}

// groundTemplate instantiates a call template under a substitution,
// reporting ok=false if any argument remains unbound.
func groundTemplate(t *lang.CallTemplate, s term.Subst) (domain.Call, bool) {
	args := make([]term.Value, len(t.Args))
	for i, a := range t.Args {
		v, err := s.Eval(a)
		if err != nil {
			return domain.Call{}, false
		}
		args[i] = v
	}
	return domain.Call{Domain: t.Domain, Function: t.Function, Args: args}, true
}

// condHolds evaluates an invariant condition under a substitution. A
// condition that cannot be evaluated (unbound variable, incomparable
// values) does not hold: invariants are only applied when their
// applicability is certain, keeping reuse sound.
func condHolds(cond []lang.Comparison, s term.Subst) bool {
	for i := range cond {
		ok, err := cond[i].Holds(s)
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// findCandidates finds cache entries that `other` (under θ extending
// the unification of our call with `mine`) matches, with the condition
// holding. If `other` is ground under θ this is a direct probe; otherwise
// the cached calls of the other side's function are scanned (charged per
// entry examined) — by-function via the call index, or over a whole store
// snapshot on the LinearMatching debug path. No shard lock is held while
// the clock is charged. requireComplete restricts to complete entries.
func (m *Manager) findCandidates(ctx *domain.Ctx, theta term.Subst, cond []lang.Comparison, other *lang.CallTemplate, requireComplete bool) []*Entry {
	// Fast path: other side fully determined by our call's bindings.
	if oc, ok := groundTemplate(other, theta); ok {
		if !condHolds(cond, theta) {
			return nil
		}
		ctx.Clock.Sleep(m.cfg.LookupCost)
		if e, found := m.store.Get(oc.Key()); found && (e.Complete || !requireComplete) {
			return []*Entry{e}
		}
		return nil
	}
	// Slow path: scan cached calls to the other side's domain:function.
	var out []*Entry
	scan := func(e *Entry) {
		ctx.Clock.Sleep(m.cfg.ScanPerEntry)
		theta2, ok := unifyTemplate(theta, other, e.Call)
		if !ok || !condHolds(cond, theta2) {
			return
		}
		if requireComplete && !e.Complete {
			return
		}
		out = append(out, e)
	}
	if m.cfg.LinearMatching {
		m.linearScans.Add(1)
		for _, e := range m.store.Snapshot() {
			if e.Call.Domain != other.Domain || e.Call.Function != other.Function {
				continue
			}
			scan(e)
		}
		return out
	}
	for _, ck := range m.idx.CallKeys(other.Domain, other.Function) {
		e, ok := m.store.Get(ck)
		if !ok {
			continue // evicted since the bucket copy; the scan never saw it
		}
		scan(e)
	}
	return out
}

// relevant reports whether a template could match the call at all (same
// domain, function and arity). Irrelevant invariants are skipped by a
// cheap dispatch check, which is why the paper found the overhead of
// checking the cache and invariants without success to be negligible.
// On the indexed path this check is the bucket key: a bucket holds
// exactly the relevant invariants, so per-probe work is O(bucket), not
// O(registered invariants).
func relevant(t *lang.CallTemplate, c domain.Call) bool {
	return t.Domain == c.Domain && t.Function == c.Function && len(t.Args) == len(c.Args)
}

// indexProbe reports one discrimination-index probe: the candidate
// bucket size feeds the obs counters (and the span tag interactive
// EXPLAIN shows), and the invariants the bucket let the probe skip are
// counted as scans avoided.
func (m *Manager) indexProbe(ctx *domain.Ctx, candidates int) {
	m.idxCandidates.Add(int64(candidates))
	m.idxScansAvoided.Add(int64(m.idx.Len() - candidates))
	ctx.Span.SetTag("invindex.candidates", strconv.Itoa(candidates))
}

// parallelThreshold resolves the configured equality fan-out threshold.
func (m *Manager) parallelThreshold() int {
	switch {
	case m.cfg.ParallelMatchThreshold > 0:
		return m.cfg.ParallelMatchThreshold
	case m.cfg.ParallelMatchThreshold < 0:
		return int(^uint(0) >> 1) // disabled: no bucket is this large
	default:
		return DefaultParallelMatchThreshold
	}
}

// matchEquality tries one equality invariant against a call: both
// orientations are unified (equality is symmetric) and candidate entries
// are searched for the rewritten side. The caller has already charged
// the per-invariant match cost. On a hit the best candidate by recency
// is returned.
func (m *Manager) matchEquality(ctx *domain.Ctx, inv *lang.Invariant, call domain.Call) (*Entry, bool) {
	sides := [2][2]*lang.CallTemplate{
		{&inv.Left, &inv.Right},
		{&inv.Right, &inv.Left},
	}
	for _, pair := range sides {
		mine, other := pair[0], pair[1]
		theta, ok := unifyTemplate(term.Subst{}, mine, call)
		if !ok {
			continue
		}
		// An equality hit requires a complete cached answer set.
		if cands := m.findCandidates(ctx, theta, inv.Cond, other, true); len(cands) > 0 {
			best := cands[0]
			for _, c := range cands[1:] {
				if c.lastUsed.Load() > best.lastUsed.Load() {
					best = c
				}
			}
			return best, true
		}
	}
	return nil, false
}

// findEquality looks for a cached call that an equality invariant
// proves has the identical answer set (§4.1, case 2). Candidates come
// from the discrimination index — exactly the invariants whose dispatch
// check the linear scan would have passed — and large buckets fan the
// match attempts out across the query's scheduler lanes. The matched
// invariant is returned alongside the entry for savings attribution.
func (m *Manager) findEquality(ctx *domain.Ctx, call domain.Call) (*Entry, *lang.Invariant) {
	if m.cfg.LinearMatching {
		return m.findEqualityLinear(ctx, call)
	}
	cands := m.idx.Equalities(invindex.KeyOfCall(call))
	m.indexProbe(ctx, len(cands))
	if len(cands) >= m.parallelThreshold() {
		if e, inv, ok := m.findEqualityParallel(ctx, call, cands); ok {
			return e, inv
		}
	}
	for _, inv := range cands {
		ctx.Clock.Sleep(m.cfg.InvariantMatch)
		if e, ok := m.matchEquality(ctx, inv, call); ok {
			return e, inv
		}
	}
	return nil, nil
}

// findEqualityParallel fans equality matching over a large candidate
// bucket across the per-query scheduler: each extra lane granted by
// ctx.Sched works a contiguous chunk on a forked clock, stopping at its
// chunk's first hit; all forks join back into the caller's clock
// (virtual time = the slowest chunk, so the fan-out is what shortens the
// probe), and the winner is the hit with the lowest bucket position —
// exactly the invariant sequential matching would have chosen, making
// results and answer streams identical at any parallelism. ok=false
// when no extra lanes were granted (caller falls back to sequential).
func (m *Manager) findEqualityParallel(ctx *domain.Ctx, call domain.Call, cands []*lang.Invariant) (*Entry, *lang.Invariant, bool) {
	extra := ctx.Sched.TryAcquire(len(cands) / m.parallelThreshold())
	if extra <= 0 {
		return nil, nil, false
	}
	defer ctx.Sched.Release(extra)
	m.idxParallelMatches.Inc()

	workers := extra + 1
	chunk := (len(cands) + workers - 1) / workers
	type hit struct {
		pos int
		e   *Entry
	}
	hits := make([]hit, workers)
	forks := make([]*domain.Ctx, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(cands) {
			hi = len(cands)
		}
		fctx := ctx.Fork()
		forks[w] = fctx
		hits[w] = hit{pos: -1}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int, fctx *domain.Ctx) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fctx.Clock.Sleep(m.cfg.InvariantMatch)
				if e, ok := m.matchEquality(fctx, cands[i], call); ok {
					hits[w] = hit{pos: i, e: e}
					return
				}
			}
		}(w, lo, hi, fctx)
	}
	wg.Wait()
	for _, f := range forks {
		ctx.Clock.Join(f.Clock)
	}
	best := hit{pos: -1}
	for _, h := range hits {
		if h.pos >= 0 && (best.pos < 0 || h.pos < best.pos) {
			best = h
		}
	}
	if best.pos < 0 {
		return nil, nil, true
	}
	return best.e, cands[best.pos], true
}

// findEqualityLinear is the pre-index full scan, kept as the
// LinearMatching debug oracle: every registered invariant is walked,
// with the cheap relevance dispatch deciding whether a match is charged
// and attempted.
func (m *Manager) findEqualityLinear(ctx *domain.Ctx, call domain.Call) (*Entry, *lang.Invariant) {
	m.linearScans.Add(1)
	for _, inv := range m.idx.All() {
		if inv.Rel != lang.RelEqual {
			continue
		}
		if !relevant(&inv.Left, call) && !relevant(&inv.Right, call) {
			continue
		}
		ctx.Clock.Sleep(m.cfg.InvariantMatch)
		if e, ok := m.matchEquality(ctx, inv, call); ok {
			return e, inv
		}
	}
	return nil, nil
}

// matchPartial tries one superset invariant against a call, feeding
// every sound candidate entry to consider. The caller has already
// charged the per-invariant match cost.
func (m *Manager) matchPartial(ctx *domain.Ctx, inv *lang.Invariant, call domain.Call, consider func(*Entry, *lang.Invariant)) {
	// Our call must be the superset (Left) side; cached entries
	// matching Right provide subsets of our answers.
	theta, ok := unifyTemplate(term.Subst{}, &inv.Left, call)
	if !ok {
		return
	}
	for _, e := range m.findCandidates(ctx, theta, inv.Cond, &inv.Right, false) {
		if len(e.Answers) > 0 {
			consider(e, inv)
		}
	}
}

// findPartial looks for the best sound partial answer for a call
// (§4.1, case 3): a cached call C such that some superset invariant proves
// answers(call) ⊇ answers(C), or an incomplete exact entry for the call
// itself. "Best" is the candidate with the most cached answers. The
// invariant that proved the winning candidate is returned for savings
// attribution (nil when the winner is the call's own incomplete entry).
func (m *Manager) findPartial(ctx *domain.Ctx, call domain.Call) (*Entry, *lang.Invariant) {
	var best *Entry
	var bestInv *lang.Invariant
	consider := func(e *Entry, inv *lang.Invariant) {
		if best == nil || len(e.Answers) > len(best.Answers) {
			best, bestInv = e, inv
		}
	}
	// An incomplete exact entry is itself a sound partial answer.
	if e, ok := m.store.Get(call.Key()); ok && !e.Complete {
		consider(e, nil)
	}
	if m.cfg.LinearMatching {
		m.linearScans.Add(1)
		for _, inv := range m.idx.All() {
			if inv.Rel != lang.RelSuperset {
				continue
			}
			if !relevant(&inv.Left, call) {
				continue
			}
			ctx.Clock.Sleep(m.cfg.InvariantMatch)
			m.matchPartial(ctx, inv, call, consider)
		}
		return best, bestInv
	}
	cands := m.idx.Supersets(invindex.KeyOfCall(call))
	m.indexProbe(ctx, len(cands))
	for _, inv := range cands {
		ctx.Clock.Sleep(m.cfg.InvariantMatch)
		m.matchPartial(ctx, inv, call, consider)
	}
	return best, bestInv
}
