package cim

import (
	"fmt"
	"slices"

	"hermes/internal/domain"
	"hermes/internal/invindex"
	"hermes/internal/lang"
	"hermes/internal/term"
)

// invariant is a registered invariant, compiled to frame positions once:
// its text (its savings-ledger key and the label of its hit series), both
// readings of its calls, and its condition's sides, those of Cond[i] at 2i
// and 2i+1.
type invariant struct {
	*lang.Invariant
	key   string
	sides [2]orientation // Left to Right, then Right to Left
	cond  []term.Slot
	size  int // frame positions
}

// orientation is one way to read an invariant against a call: the call
// unifies with mine, and other names the call whose answers serve it. An
// equality is read both ways, a superset only as Left to Right.
type orientation struct {
	mine, other         *lang.CallTemplate
	mineArgs, otherArgs []term.Slot
}

// compileInvariant numbers an invariant's variables and checks the
// paper's well-formedness condition on it: no free variables, so a
// condition names only variables of the two calls (that conditions are
// comparisons, the type guarantees).
func compileInvariant(inv *lang.Invariant) (*invariant, error) {
	var n term.Numbering
	l, r := n.Slots(nil, inv.Left.Args), n.Slots(nil, inv.Right.Args)
	c := &invariant{Invariant: inv, key: inv.String(), size: len(n), sides: [2]orientation{
		{&inv.Left, &inv.Right, l, r}, {&inv.Right, &inv.Left, r, l},
	}}
	for i := range inv.Cond {
		c.cond = append(c.cond, n.Slot(&inv.Cond[i].Left), n.Slot(&inv.Cond[i].Right))
	}
	if len(n) > c.size {
		return nil, fmt.Errorf("invariant %s: condition variable %s appears in neither domain call", inv, n[c.size])
	}
	return c, nil
}

// compiled returns a registered invariant's compiled form.
func (m *Manager) compiled(inv *lang.Invariant) *invariant {
	m.hookMu.RLock()
	defer m.hookMu.RUnlock()
	return m.invs[inv]
}

// frames cuts the two frames a probe matches an invariant in out of buf,
// cleared: theta for the call's side, and scratch, reset from theta for
// each cached entry tried against the other side. Probes pass a stack
// array of 16 values, so only an invariant of more than eight variables
// allocates.
func (c *invariant) frames(buf term.Frame) (theta, scratch term.Frame) {
	buf = slices.Grow(buf[:0], 2*c.size)[:2*c.size]
	clear(buf)
	return buf[:c.size], buf[c.size:]
}

// unify matches a side's call template against a ground call, storing into
// f. It fails unless domain, function and arity match and every argument
// unifies.
func unify(f term.Frame, t *lang.CallTemplate, args []term.Slot, c domain.Call) bool {
	return t.Domain == c.Domain && t.Function == c.Function && f.UnifyAll(args, c.Args)
}

// groundKey appends to dst the key of a call template instantiated over a
// frame, reporting ok=false if any argument remains unbound. The call is
// built on the stack: a probe that only looks its key up allocates nothing
// for it.
func groundKey(dst []byte, t *lang.CallTemplate, args []term.Slot, f term.Frame) ([]byte, bool) {
	var buf [8]term.Value
	vals := buf[:0]
	for _, s := range args {
		v, err := f.Eval(s)
		if err != nil {
			return dst, false
		}
		vals = append(vals, v)
	}
	return domain.Call{Domain: t.Domain, Function: t.Function, Args: vals}.AppendKey(dst), true
}

// condHolds evaluates an invariant condition over a frame. A condition
// that cannot be evaluated (unbound variable, incomparable values) does
// not hold: invariants are only applied when their applicability is
// certain, keeping reuse sound.
func (c *invariant) condHolds(f term.Frame) bool {
	for i := range c.Cond {
		ok, err := c.Cond[i].Holds(f, c.cond[2*i], c.cond[2*i+1])
		if err != nil || !ok {
			return false
		}
	}
	return true
}

// findCandidate finds the cache entry, best by better, that o.other
// matches under theta (the frame o.mine's unification with our call
// filled), with the condition holding. If o.other is ground under theta
// this is a direct probe; otherwise the cached calls of the other side's
// function, from the call index, are scanned (charged per entry examined),
// each matched in scratch reset from theta. No shard lock is held while
// the clock is charged. requireComplete restricts to complete entries.
func (m *Manager) findCandidate(ctx *domain.Ctx, c *invariant, o orientation, theta, scratch term.Frame, requireComplete bool, better func(e, best *Entry) bool) *Entry {
	// Fast path: other side fully determined by our call's bindings.
	var kbuf [domain.CallBuf]byte
	if key, ok := groundKey(kbuf[:0], o.other, o.otherArgs, theta); ok {
		if !c.condHolds(theta) {
			return nil
		}
		ctx.Clock.Sleep(m.cfg.LookupCost)
		if e, found := m.store.GetBytes(key); found && (e.Complete || !requireComplete) && better(e, nil) {
			return e
		}
		return nil
	}
	// Slow path: scan cached calls to the other side's domain:function.
	var best *Entry
	for _, ck := range m.idx.CallKeys(o.other.Domain, o.other.Function) {
		e, ok := m.store.Get(ck)
		if !ok {
			continue // evicted since the bucket copy; the scan never saw it
		}
		ctx.Clock.Sleep(m.cfg.ScanPerEntry)
		copy(scratch, theta)
		if unify(scratch, o.other, o.otherArgs, e.Call) && c.condHolds(scratch) &&
			(e.Complete || !requireComplete) && better(e, best) {
			best = e
		}
	}
	return best
}

// tagCandidates shows on the call's span how many invariants the
// discrimination index returned to a probe.
func tagCandidates(ctx *domain.Ctx, candidates int) {
	ctx.Span.SetTagInt("invindex.candidates", candidates)
}

// mostRecent prefers the entry used last: an equality hit's pick.
func mostRecent(e, best *Entry) bool { return best == nil || e.lastUsed.Load() > best.lastUsed.Load() }

// mostAnswers prefers the entry with the most cached answers, and never
// an empty one: a partial hit's pick.
func mostAnswers(e, best *Entry) bool {
	return len(e.Answers) > 0 && (best == nil || len(e.Answers) > len(best.Answers))
}

// findEquality looks for a cached call that an equality invariant proves
// has the identical answer set (§4.1, case 2), reading each invariant both
// ways. Candidates come from the discrimination index, tried in
// registration order, and an invariant's complete candidates are picked
// by recency. The matched invariant is returned alongside the entry for
// savings attribution, and the index's candidate count for the caller's
// tally.
func (m *Manager) findEquality(ctx *domain.Ctx, call domain.Call) (*Entry, *lang.Invariant, int) {
	cands := m.idx.Equalities(invindex.KeyOfCall(call))
	tagCandidates(ctx, len(cands))
	var buf [16]term.Value
	for _, inv := range cands {
		ctx.Clock.Sleep(m.cfg.InvariantMatch)
		c := m.compiled(inv)
		for _, o := range c.sides {
			theta, scratch := c.frames(buf[:0])
			if !unify(theta, o.mine, o.mineArgs, call) {
				continue
			}
			if e := m.findCandidate(ctx, c, o, theta, scratch, true, mostRecent); e != nil {
				return e, inv, len(cands)
			}
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
	var buf [16]term.Value
	for _, inv := range cands {
		ctx.Clock.Sleep(m.cfg.InvariantMatch)
		// Our call must be the superset (Left) side; cached entries
		// matching Right provide subsets of our answers.
		c := m.compiled(inv)
		theta, scratch := c.frames(buf[:0])
		if !unify(theta, &inv.Left, c.sides[0].mineArgs, call) {
			continue
		}
		if e := m.findCandidate(ctx, c, c.sides[0], theta, scratch, false, mostAnswers); e != nil && mostAnswers(e, best) {
			best, bestInv = e, inv
		}
	}
	return best, bestInv, len(cands)
}
