package cim

// Single-flight source calls. N concurrent identical (or
// invariant-equivalent) cache misses stampeding the same slow source is
// exactly the failure mode a mediator cache exists to prevent, so the CIM
// coalesces them: the first caller becomes the flight leader and issues
// the one actual call; every later caller attaches to the in-flight fetch,
// replays the answers already received, then co-consumes the remainder.
// Whoever needs the next answer first pulls the shared source stream (the
// pull advances the leader's clock, which meters the call); everyone else
// is woken by the broadcast. The flight's answers are stored in the cache
// once, with the same measurement semantics as an unshared call.

import (
	"sync"

	"hermes/internal/domain"
	"hermes/internal/invindex"
	"hermes/internal/spool"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// flight is one in-flight actual source call with its attached readers.
// The shared answers live in log; everything under mu is the puller
// election, which decides who advances the source on everyone's behalf.
type flight struct {
	m    *Manager
	call domain.Call
	key  string

	// ready is closed once setup finished (src usable or setupErr set).
	ready    chan struct{}
	setupErr error

	// log holds each answer stamped with its availability reading on the
	// leader's clock, and the flight's end (error and end time). It is
	// pushed and settled only under mu, so a reader that finds its index
	// pending, takes mu and probes again sees every finished pull.
	log spool.Log[term.Value]

	mu       sync.Mutex
	src      domain.Stream // the measured actual stream; pulled under the pulling flag
	srcClock vclock.Clock  // the leader's clock, advanced by whoever pulls
	readers  int
	pulling  bool
	// closeOnIdle defers the last reader's early close while a pull is in
	// progress (the stream must not be closed under a concurrent Next).
	closeOnIdle bool
	// abandoned marks a flight ended by an early close rather than source
	// exhaustion: its log may be incomplete, so late joiners must start
	// their own call instead of attaching.
	abandoned bool
}

func newFlight(m *Manager, call domain.Call, key string) *flight {
	return &flight{m: m, call: call, key: key, ready: make(chan struct{})}
}

// lead issues the actual call as the flight's one source fetch. On setup
// failure the flight is dissolved so a later caller may retry.
func (f *flight) lead(ctx *domain.Ctx) (*flightReader, error) {
	start := ctx.Clock.Now()
	inner, err := f.m.caller.Call(ctx, f.call)
	if err != nil {
		f.setupErr = err
		close(f.ready)
		f.m.removeFlight(f)
		return nil, err
	}
	f.mu.Lock()
	f.srcClock = ctx.Clock
	f.src = domain.NewMeasuredStreamAt(inner, ctx.Clock, f.call, start, f.onMeasured)
	f.mu.Unlock()
	close(f.ready)
	note(ctx, f.key, false)
	return &flightReader{f: f, ctx: ctx}, nil
}

// onMeasured stores the flight's collected answers and forwards the
// measurement (DCSM). Called from inside src.Next/src.Close, so f.mu is
// never held here.
func (f *flight) onMeasured(meas domain.Measurement) {
	f.m.storeEntry(f.call, f.log.Values(), meas.Complete, meas.Cost)
	if hook := f.m.measureHook(); hook != nil {
		hook(meas)
	}
}

// detach drops a reader that never consumed (context cancelled while
// waiting for setup, or a failed join).
func (f *flight) detach() {
	f.mu.Lock()
	f.readers--
	f.mu.Unlock()
}

// pull advances the source by one answer on behalf of every reader and
// logs the outcome. The caller won the election (set f.pulling under f.mu)
// and released the lock. The pull advances the leader's clock, which
// meters the call.
func (f *flight) pull(src domain.Stream) {
	v, ok, err := src.Next()
	at := f.srcClock.Now()
	f.mu.Lock()
	f.pulling = false
	if err == nil && ok {
		f.log.Push(v, at)
		// The last reader left during the pull: the flight ends here, and
		// this puller finishes that reader's close.
		f.abandoned = f.closeOnIdle && f.readers == 0
	}
	abandoned := f.abandoned
	ended := err != nil || !ok || abandoned
	if ended {
		f.log.Settle(err, at)
	}
	f.mu.Unlock()
	if ended {
		f.m.removeFlight(f)
		if abandoned {
			src.Close()
		}
	}
}

// flightReader is one consumer's view of a flight: it replays the shared
// log from its own cursor, advancing its clock to each answer's
// availability time, and co-consumes the source past the end of the log.
type flightReader struct {
	f      *flight
	ctx    *domain.Ctx
	idx    int
	closed bool
}

func (r *flightReader) Next() (term.Value, bool, error) {
	f := r.f
	for {
		it, st, wake := f.log.Probe(r.idx)
		if st == spool.Pending {
			// Nothing logged for us yet. Probe again under the election
			// lock: a pull that finished since the first probe has logged
			// its answer by now, so exactly one source Next is issued per
			// missing answer. Then either this reader — the most caught-up
			// — pulls, or it waits for whoever is pulling.
			f.mu.Lock()
			it, st, wake = f.log.Probe(r.idx)
			if st == spool.Pending && !f.pulling {
				f.pulling = true
				src := f.src
				f.mu.Unlock()
				f.pull(src)
				continue
			}
			f.mu.Unlock()
		}
		switch st {
		case spool.Ready:
			r.idx++
			vclock.AdvanceTo(r.ctx.Clock, it.At)
			return it.V, true, nil
		case spool.Ended:
			endAt, err, _ := f.log.End()
			if err != nil {
				return nil, false, err
			}
			vclock.AdvanceTo(r.ctx.Clock, endAt)
			return nil, false, nil
		}
		// Someone else is pulling: wait for the broadcast (or our own
		// cancellation — a parallel branch being torn down must not hang
		// on a flight other branches keep feeding).
		select {
		case <-wake:
		case <-r.ctx.Done():
			return nil, false, r.ctx.Err()
		}
	}
}

func (r *flightReader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	f := r.f
	f.mu.Lock()
	f.readers--
	if _, _, ended := f.log.End(); f.readers > 0 || ended {
		f.mu.Unlock()
		return nil
	}
	if f.pulling {
		// A pull we cannot interrupt is in progress; the puller finishes
		// the close when it returns.
		f.closeOnIdle = true
		f.mu.Unlock()
		return nil
	}
	// Last reader leaving an unfinished flight: close the source. The
	// measured stream records an incomplete entry, exactly like an
	// unshared early close (interactive pruning).
	f.abandoned = true
	f.log.Settle(nil, f.srcClock.Now())
	src := f.src
	f.mu.Unlock()
	f.m.removeFlight(f)
	return src.Close()
}

// actualStream issues the real source call under key, the call's cache
// key, with single-flight semantics: if an identical (or
// equality-invariant-equivalent) call is already in flight, attach to it
// instead of stampeding the source. The call, and the flight's call when
// that differs, are noted once the reader is attached.
func (m *Manager) actualStream(ctx *domain.Ctx, call domain.Call, key string) (*flightReader, error) {
	for {
		m.flightMu.Lock()
		f := m.flights[key]
		shared := "shared"
		if f == nil {
			f = m.equivalentFlightLocked(ctx, call)
			shared = "shared-equality"
		}
		if f != nil {
			f.mu.Lock()
			if f.abandoned {
				// The flight ended with an early close while we were looking
				// it up: its answers may be partial. Clear the dead index
				// entry ourselves (we hold flightMu) and start fresh.
				f.mu.Unlock()
				if cur, ok := m.flights[f.key]; ok && cur == f {
					delete(m.flights, f.key)
				}
				m.flightMu.Unlock()
				continue
			}
			f.readers++
			f.mu.Unlock()
			m.flightMu.Unlock()
			select {
			case <-f.ready:
			case <-ctx.Done():
				f.detach()
				return nil, ctx.Err()
			}
			if f.setupErr != nil {
				// The leader's call died at setup; retry as leader (the
				// failed flight was removed).
				f.detach()
				continue
			}
			m.singleFlightShares.Inc()
			ctx.Span.SetTag("singleflight", shared)
			note(ctx, key, false)
			if shared == "shared-equality" {
				ctx.Span.SetTagFrom("serving", &f.call)
				note(ctx, f.key, false)
			}
			return &flightReader{f: f, ctx: ctx}, nil
		}
		f = newFlight(m, call, key)
		f.readers = 1
		m.flights[key] = f
		m.flightMu.Unlock()
		return f.lead(ctx)
	}
}

// equivalentFlightLocked finds an in-flight call an equality invariant
// proves has the call's answer set: findCandidate's ground fast path, with
// the flight index in place of the store. The call's equality bucket is
// walked once, in registration order, so of several equivalent flights the
// first-registered invariant's wins. Caller holds m.flightMu.
func (m *Manager) equivalentFlightLocked(ctx *domain.Ctx, call domain.Call) *flight {
	if len(m.flights) == 0 {
		return nil
	}
	cands := m.idx.Equalities(invindex.KeyOfCall(call))
	m.idxCandidates.Add(int64(len(cands)))
	tagCandidates(ctx, len(cands))
	var buf [16]term.Value
	var kbuf [domain.CallBuf]byte
	for _, inv := range cands {
		ctx.Clock.Sleep(m.cfg.InvariantMatch)
		c := m.compiled(inv)
		for _, o := range c.sides {
			theta, _ := c.frames(buf[:0])
			if !unify(theta, o.mine, o.mineArgs, call) {
				continue
			}
			key, ok := groundKey(kbuf[:0], o.other, o.otherArgs, theta)
			if !ok || !c.condHolds(theta) {
				continue
			}
			if f := m.flights[string(key)]; f != nil {
				return f
			}
		}
	}
	return nil
}

// removeFlight detaches a flight from the index once it completed,
// failed, or was abandoned, so later identical calls hit the cache (or
// start a fresh fetch) instead of a dead flight.
func (m *Manager) removeFlight(f *flight) {
	m.flightMu.Lock()
	if cur, ok := m.flights[f.key]; ok && cur == f {
		delete(m.flights, f.key)
	}
	m.flightMu.Unlock()
}
