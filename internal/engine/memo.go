package engine

// Rule-level memoization of IDB subgoal occurrences (internal/memo wired
// into evalAtom). The memo serves whole intermediate relations: on a hit
// the engine replays the cached tuples instead of re-expanding the
// subgoal's rules; on a miss it fills the key, evaluating normally while
// recording every emitted tuple and every contributing domain call. A
// concurrent occurrence of the same key fills it too; the CIM beneath both
// coalesces their source calls. A recursive re-entry with the same key is
// the same evaluation one level deeper, so it ends at the depth guard
// exactly as it would memo-off.
//
// Soundness relies on the memo key (memo.KeyOf) pinning everything that
// could change the answer multiset: the plan's rule section fingerprint,
// the predicate and run-time adornment, the ground values at bound
// positions, and the equality structure among free positions. Replay
// re-unifies each tuple against the occurrence's argument terms, so the
// caller-side filtering that atomStream.mapBack performs happens
// identically for cached answers.

import (
	"time"

	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// memoKeyArgs classifies an occurrence's argument positions for the memo
// key. ok=false marks an occurrence the memo refuses: a free argument with
// an attribute path cannot be replayed by unification (the enclosing
// record is unknown), and a "ground" argument whose path does not resolve
// would error during evaluation anyway.
func memoKeyArgs(a *lang.Atom, s term.Subst) ([]memo.KeyArg, bool) {
	args := make([]memo.KeyArg, len(a.Args))
	for i, t := range a.Args {
		if s.Ground(t) {
			v, err := s.Eval(t)
			if err != nil {
				return nil, false
			}
			args[i] = memo.KeyArg{Bound: true, ValueKey: v.Key()}
			continue
		}
		if len(t.Path) > 0 {
			return nil, false
		}
		args[i] = memo.KeyArg{Var: t.Var}
	}
	return args, true
}

// newMemoStream consults the memo for an IDB occurrence. ok=false means
// the occurrence is not memoizable (un-keyable arguments) and the caller
// must evaluate it directly.
func (e *Engine) newMemoStream(ctx *domain.Ctx, plan *rewrite.Plan, a *lang.Atom, s term.Subst, pk rewrite.PredKey, rules []*rewrite.PlanRule, depth int) (substStream, bool) {
	kargs, ok := memoKeyArgs(a, s)
	if !ok {
		return nil, false
	}
	mkey := memo.KeyOf(plan.Fingerprint(), a.Pred, string(pk.Adorn), kargs)
	ctx.Clock.Sleep(e.memo.LookupCost())
	res := e.memo.Probe(mkey)
	if res.Entry != nil {
		now := ctx.Clock.Now()
		span := ctx.Span.Child("memo "+pk.String(), now)
		span.SetTag("memo", "hit")
		span.SetTag("memo.saved_ms", obs.FormatMillis(res.Entry.Cost.TAll))
		// An enclosing fill inherits the entry's inputs: its relation now
		// depends on the same domain calls.
		if note := ctx.CallNote; note != nil {
			for _, in := range res.Entry.Inputs {
				note(in, false)
			}
		}
		return &memoServeStream{eng: e, ctx: ctx, atom: a, s: s, entry: res.Entry, span: span}, true
	}
	// Miss: evaluate normally, recording tuples and domain calls. The
	// CallNote chain keeps any outer fill observing too.
	rec := res.Rec
	prev := ctx.CallNote
	lctx := ctx.WithCallNote(func(callKey string, degraded bool) {
		rec.Note(callKey, degraded)
		if prev != nil {
			prev(callKey, degraded)
		}
	})
	inner := e.buildAtomStream(lctx, plan, a, s, rules, depth)
	return &memoRecordStream{
		ctx: lctx, atom: a, inner: inner, rec: rec, start: ctx.Clock.Now(),
	}, true
}

// memoServeStream replays a committed memo entry, re-unifying each tuple
// against the occurrence's arguments (bound values and repeated variables
// filter exactly as live evaluation would).
type memoServeStream struct {
	eng   *Engine
	ctx   *domain.Ctx
	atom  *lang.Atom
	s     term.Subst
	entry *memo.Entry
	span  *obs.Span
	idx   int
	done  bool
}

func (m *memoServeStream) next() (term.Subst, bool, error) {
	if m.done {
		return term.Subst{}, false, nil
	}
	for m.idx < len(m.entry.Tuples) {
		tuple := m.entry.Tuples[m.idx]
		m.idx++
		m.ctx.Clock.Sleep(m.eng.memo.PerTupleCost())
		out, ok := m.s.UnifyAll(m.atom.Args, tuple)
		if !ok {
			continue
		}
		return out, true, nil
	}
	m.finish()
	return term.Subst{}, false, nil
}

func (m *memoServeStream) finish() {
	if m.done {
		return
	}
	m.done = true
	m.span.End(m.ctx.Clock.Now())
}

func (m *memoServeStream) close() error {
	m.finish()
	return nil
}

// memoRecordStream is a fill: it passes the inner evaluation through
// unchanged while recording each emission's ground argument tuple,
// committing on natural exhaustion and aborting on error or early close.
type memoRecordStream struct {
	ctx   *domain.Ctx
	atom  *lang.Atom
	inner substStream
	rec   *memo.Recording

	start    time.Duration
	firstAt  time.Duration
	gotFirst bool
	n        int
	settled  bool
}

func (m *memoRecordStream) next() (term.Subst, bool, error) {
	out, ok, err := m.inner.next()
	if err != nil {
		m.abort()
		return term.Subst{}, false, err
	}
	if !ok {
		m.commit()
		return term.Subst{}, false, nil
	}
	now := m.ctx.Clock.Now()
	if !m.gotFirst {
		m.gotFirst = true
		m.firstAt = now
	}
	m.n++
	if !m.settled {
		// An emission that cannot be represented as a ground tuple, or
		// that takes the relation past the memo's per-entry cap, ends the
		// recording; the stream keeps answering.
		if tuple, ok := argTuple(m.atom, out); !ok || !m.rec.Add(tuple) {
			m.abort()
		}
	}
	return out, true, nil
}

func (m *memoRecordStream) commit() {
	if m.settled {
		return
	}
	m.settled = true
	now := m.ctx.Clock.Now()
	tf := now - m.start
	if m.gotFirst {
		tf = m.firstAt - m.start
	}
	m.rec.Commit(domain.CostVector{TFirst: tf, TAll: now - m.start, Card: float64(m.n)})
}

func (m *memoRecordStream) abort() {
	if m.settled {
		return
	}
	m.settled = true
	m.rec.Abort()
}

func (m *memoRecordStream) close() error {
	// Early close means the relation was not drained: nothing to store.
	m.abort()
	return m.inner.close()
}

// argTuple evaluates an atom's arguments under an emission to the ground
// tuple the memo records. ok=false when an
// argument does not evaluate (an attribute path that does not resolve).
func argTuple(a *lang.Atom, out term.Subst) ([]term.Value, bool) {
	vals := make([]term.Value, len(a.Args))
	for i, t := range a.Args {
		v, err := out.Eval(t)
		if err != nil {
			return nil, false
		}
		vals[i] = v
	}
	return vals, true
}
