package domain

import (
	"time"

	"hermes/internal/term"
	"hermes/internal/vclock"
)

// SliceStream streams a pre-materialized answer slice. An optional
// per-answer delay charges the clock for transfer/compute per tuple, which
// is how simulated domains model time-to-first-answer vs time-to-all.
//
// The slice and its values are shared, not copied: a source may hand up
// values it boxed once and serves to every call, so neither the stream nor
// any consumer modifies them.
type SliceStream struct {
	vals     []term.Value
	idx      int
	clock    vclock.Clock
	perTuple time.Duration
	closed   bool
}

// NewSliceStream returns a stream over vals with no time cost.
func NewSliceStream(vals []term.Value) *SliceStream {
	return &SliceStream{vals: vals}
}

// NewTimedSliceStream returns a stream over vals that advances clock by
// perTuple before yielding each answer; with a nil clock it charges
// nothing.
func NewTimedSliceStream(vals []term.Value, clock vclock.Clock, perTuple time.Duration) *SliceStream {
	return &SliceStream{vals: vals, clock: clock, perTuple: perTuple}
}

// Next yields the next answer.
func (s *SliceStream) Next() (term.Value, bool, error) {
	if s.closed || s.idx >= len(s.vals) {
		return nil, false, nil
	}
	v := s.vals[s.idx]
	s.idx++
	if s.clock != nil && s.perTuple > 0 {
		s.clock.Sleep(s.perTuple)
	}
	return v, true, nil
}

// Close stops the stream.
func (s *SliceStream) Close() error {
	s.closed = true
	return nil
}

// Collect drains a stream into a slice and closes it.
func Collect(s Stream) ([]term.Value, error) {
	defer s.Close()
	var out []term.Value
	for {
		v, ok, err := s.Next()
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		out = append(out, v)
	}
}

// FuncStream adapts a pull function to a Stream.
type FuncStream struct {
	fn     func() (term.Value, bool, error)
	closer func() error
}

// NewFuncStream wraps fn (and an optional closer) as a Stream.
func NewFuncStream(fn func() (term.Value, bool, error), closer func() error) *FuncStream {
	return &FuncStream{fn: fn, closer: closer}
}

// Next pulls the next answer from the function.
func (s *FuncStream) Next() (term.Value, bool, error) { return s.fn() }

// Close invokes the closer, if any.
func (s *FuncStream) Close() error {
	if s.closer == nil {
		return nil
	}
	return s.closer()
}

// DedupStream suppresses answers already seen (by canonical key). Seed keys
// may be provided, e.g. the cached partial answers a CIM subset-invariant
// already delivered.
type DedupStream struct {
	inner Stream
	seen  map[string]struct{}
	// PerProbe charges the clock for each duplicate check; the paper notes
	// that CIM "must keep the answers from the cache in memory and compare
	// them with the answers from the actual call", a measurable overhead.
	clock    vclock.Clock
	perProbe time.Duration
}

// NewDedupStream wraps inner, suppressing values whose keys are in seed or
// were already emitted.
func NewDedupStream(inner Stream, seed map[string]struct{}) *DedupStream {
	seen := make(map[string]struct{}, len(seed))
	for k := range seed {
		seen[k] = struct{}{}
	}
	return &DedupStream{inner: inner, seen: seen}
}

// WithProbeCost makes each membership probe advance clock by d.
func (s *DedupStream) WithProbeCost(clock vclock.Clock, d time.Duration) *DedupStream {
	s.clock = clock
	s.perProbe = d
	return s
}

// Next yields the next not-yet-seen answer.
func (s *DedupStream) Next() (term.Value, bool, error) {
	for {
		v, ok, err := s.inner.Next()
		if err != nil || !ok {
			return nil, false, err
		}
		if s.clock != nil && s.perProbe > 0 {
			s.clock.Sleep(s.perProbe)
		}
		k := v.Key()
		if _, dup := s.seen[k]; dup {
			continue
		}
		s.seen[k] = struct{}{}
		return v, true, nil
	}
}

// Close closes the inner stream.
func (s *DedupStream) Close() error { return s.inner.Close() }

// Measurement is the observed cost of one executed call: the raw material
// of the DCSM statistics cache.
type Measurement struct {
	Call Call
	Cost CostVector
	// Complete is false when the stream was closed before exhaustion (e.g.
	// pruning, or the user stopped an interactive query), in which case TAll
	// and Card understate the true values and must not be recorded as
	// all-answer statistics.
	Complete bool
}

// SourceMeter accumulates the measurement of one source call: the call
// setup time plus the time spent inside the source's Next, the time to
// its first answer, and the answers it yielded. MeasuredStream
// and the engine's per-call record both measure with it, so every
// measurement the DCSM calibrates from is taken the same way.
type SourceMeter struct {
	acc   time.Duration // setup, then the time inside each Next
	first time.Duration // acc at the first answer
	count int
}

// NewSourceMeter starts a measurement whose call was issued setup before
// its stream existed (per-call costs accrue before the stream does and
// must count).
func NewSourceMeter(setup time.Duration) SourceMeter { return SourceMeter{acc: setup} }

// Next pulls inner's next answer, timing the pull against clock.
func (m *SourceMeter) Next(inner Stream, clock vclock.Clock) (term.Value, bool, error) {
	t0 := clock.Now()
	v, ok, err := inner.Next()
	m.acc += clock.Now() - t0
	if err != nil || !ok {
		return v, ok, err
	}
	if m.count == 0 {
		m.first = m.acc
	}
	m.count++
	return v, true, nil
}

// Measurement reports what has been measured of call so far; complete
// tells whether the source was exhausted.
func (m *SourceMeter) Measurement(call Call, complete bool) Measurement {
	tf := m.first
	if m.count == 0 {
		tf = m.acc
	}
	return Measurement{
		Call:     call,
		Cost:     CostVector{TFirst: tf, TAll: m.acc, Card: float64(m.count)},
		Complete: complete,
	}
}

// MeasuredStream observes a stream against a clock, producing a Measurement
// when the stream ends (or is closed early).
//
// Time attribution matters under pipelined execution: an outer join
// operand's stream stays open while inner literals run, so "clock reading
// at exhaustion minus start" would charge the whole join's work to this one
// call. MeasuredStream instead accumulates only the time that elapses
// *inside* its own Next calls, plus the call setup time (between issuing
// the call and the stream's creation) — the cost the source itself is
// responsible for.
type MeasuredStream struct {
	inner  Stream
	clock  vclock.Clock
	call   Call
	meter  SourceMeter
	done   bool
	onDone func(Measurement)
}

// NewMeasuredStreamAt wraps inner; onDone receives the measurement
// exactly once, when the stream is exhausted or closed. Measurement starts
// at start, the clock's reading when the call was issued: per-call costs
// accrue before the stream exists and must count.
func NewMeasuredStreamAt(inner Stream, clock vclock.Clock, call Call, start time.Duration, onDone func(Measurement)) *MeasuredStream {
	return &MeasuredStream{inner: inner, clock: clock, call: call, meter: NewSourceMeter(clock.Now() - start), onDone: onDone}
}

// Next forwards to the inner stream, recording first-answer time and
// cardinality.
func (s *MeasuredStream) Next() (term.Value, bool, error) {
	v, ok, err := s.meter.Next(s.inner, s.clock)
	if err == nil && !ok {
		s.finish(true)
	}
	return v, ok, err
}

// Close closes the inner stream and finalizes the measurement as
// incomplete if the stream had not ended.
func (s *MeasuredStream) Close() error {
	err := s.inner.Close()
	s.finish(false)
	return err
}

func (s *MeasuredStream) finish(complete bool) {
	if s.done {
		return
	}
	s.done = true
	if s.onDone != nil {
		s.onDone(s.meter.Measurement(s.call, complete))
	}
}
