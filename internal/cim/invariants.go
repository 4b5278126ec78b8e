package cim

import (
	"strconv"

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
// bucket size feeds the obs counter and the span tag interactive EXPLAIN
// shows.
func (m *Manager) indexProbe(ctx *domain.Ctx, candidates int) {
	m.idxCandidates.Add(int64(candidates))
	ctx.Span.SetTag("invindex.candidates", strconv.Itoa(candidates))
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
// check the linear scan would have passed — tried in registration order.
// The matched invariant is returned alongside the entry for savings
// attribution.
func (m *Manager) findEquality(ctx *domain.Ctx, call domain.Call) (*Entry, *lang.Invariant) {
	if m.cfg.LinearMatching {
		return m.findEqualityLinear(ctx, call)
	}
	cands := m.idx.Equalities(invindex.KeyOfCall(call))
	m.indexProbe(ctx, len(cands))
	for _, inv := range cands {
		ctx.Clock.Sleep(m.cfg.InvariantMatch)
		if e, ok := m.matchEquality(ctx, inv, call); ok {
			return e, inv
		}
	}
	return nil, nil
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
