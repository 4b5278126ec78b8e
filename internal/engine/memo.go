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
// caller-side filtering that litCode.mapBack performs happens
// identically for cached answers.

import (
	"time"

	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// memoKeyArgs classifies an occurrence's argument positions for the memo
// key, given its bound values in (nil at free positions). ok=false marks
// an occurrence the memo refuses: a free argument with an attribute path
// cannot be replayed by unification (the enclosing record is unknown).
func memoKeyArgs(a *lang.Atom, in []term.Value) ([]memo.KeyArg, bool) {
	args := make([]memo.KeyArg, len(a.Args))
	for i, t := range a.Args {
		switch {
		case in[i] != nil:
			args[i] = memo.KeyArg{Bound: true, ValueKey: in[i].Key()}
		case len(t.Path) > 0:
			return nil, false
		default:
			args[i] = memo.KeyArg{Var: t.Var}
		}
	}
	return args, true
}

// newMemoStream consults the memo for an IDB occurrence. ok=false means
// the occurrence is not memoizable (un-keyable arguments) and the caller
// must evaluate it directly.
func (e *Engine) newMemoStream(ctx *domain.Ctx, c *compiler, lc *litCode, f term.Frame, in []term.Value, depth int) (frameStream, bool) {
	kargs, ok := memoKeyArgs(lc.lit.(*lang.Atom), in)
	if !ok {
		return nil, false
	}
	mkey := memo.KeyOf(c.plan.Fingerprint(), lc.key.Pred, string(lc.key.Adorn), kargs)
	ctx.Clock.Sleep(e.memo.LookupCost())
	res := e.memo.Probe(mkey)
	if res.Entry != nil {
		now := ctx.Clock.Now()
		span := ctx.Span.Child("memo "+lc.key.String(), now)
		span.SetTag("memo", "hit")
		span.SetTag("memo.saved_ms", obs.FormatMillis(res.Entry.Cost.TAll))
		// An enclosing fill inherits the entry's inputs: its relation now
		// depends on the same domain calls.
		if note := ctx.CallNote; note != nil {
			for _, in := range res.Entry.Inputs {
				note(in, false)
			}
		}
		return &memoServeStream{eng: e, ctx: ctx, lc: lc, f: f, entry: res.Entry, span: span}, true
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
	inner := e.buildAtomStream(lctx, c, lc, f, in, depth)
	return &memoRecordStream{
		ctx: lctx, lc: lc, f: f, inner: inner, rec: rec, start: ctx.Clock.Now(),
	}, true
}

// memoServeStream replays a committed memo entry, unifying each tuple
// into the caller's frame (bound values and repeated variables filter
// exactly as live evaluation would).
type memoServeStream struct {
	eng   *Engine
	ctx   *domain.Ctx
	lc    *litCode
	f     term.Frame
	entry *memo.Entry
	span  *obs.Span
	idx   int
	done  bool
}

func (m *memoServeStream) next() (bool, error) {
	if m.done {
		return false, nil
	}
	for m.idx < len(m.entry.Tuples) {
		tuple := m.entry.Tuples[m.idx]
		m.idx++
		m.ctx.Clock.Sleep(m.eng.memo.PerTupleCost())
		clear(m.f[m.lc.lo:])
		if m.f.UnifyAll(m.lc.args, tuple) {
			return true, nil
		}
	}
	m.finish()
	return false, nil
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
	lc    *litCode
	f     term.Frame
	inner frameStream
	rec   *memo.Recording

	start    time.Duration
	firstAt  time.Duration
	gotFirst bool
	n        int
	settled  bool
}

func (m *memoRecordStream) next() (bool, error) {
	ok, err := m.inner.next()
	if err != nil {
		m.abort()
		return false, err
	}
	if !ok {
		m.commit()
		return false, nil
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
		if tuple, err := m.f.EvalAll(m.lc.args); err != nil || !m.rec.Add(tuple) {
			m.abort()
		}
	}
	return true, nil
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
