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
// Soundness relies on the memo key (memo.AppendKey) pinning everything that
// could change the answer multiset: the plan's rule section fingerprint,
// the predicate and run-time adornment, the ground values at bound
// positions, and the equality structure among free positions. Replay
// re-unifies each tuple against the occurrence's argument terms, so the
// caller-side filtering that mapBack performs happens identically for
// cached answers.

import (
	"time"

	"hermes/internal/domain"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/rewrite"
	"hermes/internal/term"
)

// newMemoStream consults the memo for an IDB occurrence. ok=false means
// the occurrence is not memoizable (un-keyable arguments) and the caller
// must evaluate it directly.
func (e *Engine) newMemoStream(ctx *domain.Ctx, prog *rewrite.Program, lc *rewrite.LitCode, f term.Frame, in []term.Value, depth int) (frameStream, bool) {
	var buf [128]byte // a longer key grows on the heap
	mkey, ok := memo.AppendKey(buf[:0], prog.Plan.Fingerprint(), lc.Key.Pred, string(lc.Key.Adorn), lc.Args, in)
	if !ok {
		return nil, false
	}
	ctx.Clock.Sleep(e.memo.LookupCost())
	res := e.memo.Probe(mkey)
	if res.Entry != nil {
		now := ctx.Clock.Now()
		ms := &memoServeStream{eng: e, ctx: ctx, lc: lc, f: f, entry: res.Entry}
		ms.span = ctx.Span.Child("", now)
		ms.span.SetName(ms)
		ms.span.SetTag("memo", "hit")
		ms.span.SetTagMillis("memo.saved_ms", res.Entry.Cost.TAll)
		// An enclosing fill inherits the entry's inputs: its relation now
		// depends on the same domain calls.
		if note := ctx.CallNote; note != nil {
			for _, in := range res.Entry.Inputs {
				note(in, false)
			}
		}
		return ms, true
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
	inner := e.buildAtomStream(lctx, prog, lc, f, in, depth)
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
	lc    *rewrite.LitCode
	f     term.Frame
	entry *memo.Entry
	span  *obs.Span
	idx   int
	done  bool
}

// AppendTo names the memo span: "memo " and the occurrence's key, which
// does not change.
func (m *memoServeStream) AppendTo(dst []byte) []byte {
	dst = append(append(append(dst, "memo "...), m.lc.Key.Pred...), '^')
	return append(dst, m.lc.Key.Adorn...)
}

func (m *memoServeStream) next() (bool, error) {
	if m.done {
		return false, nil
	}
	for m.idx < len(m.entry.Tuples) {
		tuple := m.entry.Tuples[m.idx]
		m.idx++
		m.ctx.Clock.Sleep(m.eng.memo.PerTupleCost())
		clear(m.f[m.lc.Lo:])
		if m.f.UnifyAll(m.lc.Args, tuple) {
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
	lc    *rewrite.LitCode
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
		if tuple, err := m.f.EvalAll(m.lc.Args); err != nil || !m.rec.Add(tuple) {
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
