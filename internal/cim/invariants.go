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
// the cached calls of the other side's function, from the call index, are
// scanned (charged per entry examined). No shard lock is held while the
// clock is charged. requireComplete restricts to complete entries.
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
	for _, ck := range m.idx.CallKeys(other.Domain, other.Function) {
		e, ok := m.store.Get(ck)
		if !ok {
			continue // evicted since the bucket copy; the scan never saw it
		}
		ctx.Clock.Sleep(m.cfg.ScanPerEntry)
		theta2, ok := unifyTemplate(theta, other, e.Call)
		if !ok || !condHolds(cond, theta2) {
			continue
		}
		if requireComplete && !e.Complete {
			continue
		}
		out = append(out, e)
	}
	return out
}

// tagCandidates shows on the call's span how many invariants the
// discrimination index returned to a probe.
func tagCandidates(ctx *domain.Ctx, candidates int) {
	ctx.Span.SetTag("invindex.candidates", strconv.Itoa(candidates))
}

// orientation is one way to read an equality invariant against a call:
// the call unifies with mine, and other names the provably identical call.
type orientation struct{ mine, other *lang.CallTemplate }

// orientations lists both readings of an equality invariant (equality is
// symmetric).
func orientations(inv *lang.Invariant) [2]orientation {
	return [2]orientation{{&inv.Left, &inv.Right}, {&inv.Right, &inv.Left}}
}

// matchEquality tries one equality invariant against a call: both
// orientations are unified and candidate entries are searched for the
// rewritten side. The caller has already charged the per-invariant match
// cost. On a hit the best candidate by recency is returned.
func (m *Manager) matchEquality(ctx *domain.Ctx, inv *lang.Invariant, call domain.Call) (*Entry, bool) {
	for _, side := range orientations(inv) {
		theta, ok := unifyTemplate(term.Subst{}, side.mine, call)
		if !ok {
			continue
		}
		// An equality hit requires a complete cached answer set.
		if cands := m.findCandidates(ctx, theta, inv.Cond, side.other, true); len(cands) > 0 {
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

// findEquality looks for a cached call that an equality invariant proves
// has the identical answer set (§4.1, case 2). Candidates come from the
// discrimination index, tried in registration order. The matched
// invariant is returned alongside the entry for savings attribution, and
// the index's candidate count for the caller's tally.
func (m *Manager) findEquality(ctx *domain.Ctx, call domain.Call) (*Entry, *lang.Invariant, int) {
	cands := m.idx.Equalities(invindex.KeyOfCall(call))
	tagCandidates(ctx, len(cands))
	for _, inv := range cands {
		ctx.Clock.Sleep(m.cfg.InvariantMatch)
		if e, ok := m.matchEquality(ctx, inv, call); ok {
			return e, inv, len(cands)
		}
	}
	return nil, nil, len(cands)
}

// findPartial looks for the best sound partial answer for a call (§4.1,
// case 3): a cached call C such that some superset invariant proves
// answers(call) ⊇ answers(C), or own, the call's own entry, when it is
// incomplete. "Best" is the candidate with the most cached answers. The
// invariant that proved the winning candidate is returned for savings
// attribution (nil when the winner is own), and the index's candidate
// count for the caller's tally.
func (m *Manager) findPartial(ctx *domain.Ctx, call domain.Call, own *Entry) (*Entry, *lang.Invariant, int) {
	var best *Entry
	var bestInv *lang.Invariant
	if own != nil && !own.Complete {
		best = own
	}
	cands := m.idx.Supersets(invindex.KeyOfCall(call))
	tagCandidates(ctx, len(cands))
	for _, inv := range cands {
		ctx.Clock.Sleep(m.cfg.InvariantMatch)
		// Our call must be the superset (Left) side; cached entries
		// matching Right provide subsets of our answers.
		theta, ok := unifyTemplate(term.Subst{}, &inv.Left, call)
		if !ok {
			continue
		}
		for _, e := range m.findCandidates(ctx, theta, inv.Cond, &inv.Right, false) {
			if len(e.Answers) > 0 && (best == nil || len(e.Answers) > len(best.Answers)) {
				best, bestInv = e, inv
			}
		}
	}
	return best, bestInv, len(cands)
}
