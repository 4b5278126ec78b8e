package domain

import (
	"time"

	"hermes/internal/term"
	"hermes/internal/vclock"
)

// SliceStream streams a pre-materialized answer slice. An optional
// per-answer delay charges the clock for transfer/compute per tuple, which
// is how simulated domains model time-to-first-answer vs time-to-all.
type SliceStream struct {
	vals     []term.Value
	idx      int
	clock    vclock.Clock
	perTuple func(term.Value) time.Duration
	closed   bool
}

// NewSliceStream returns a stream over vals with no time cost.
func NewSliceStream(vals []term.Value) *SliceStream {
	return &SliceStream{vals: vals}
}

// NewTimedSliceStream returns a stream over vals that advances clock by
// perTuple(v) before yielding each answer.
func NewTimedSliceStream(vals []term.Value, clock vclock.Clock, perTuple func(term.Value) time.Duration) *SliceStream {
	return &SliceStream{vals: vals, clock: clock, perTuple: perTuple}
}

// Next yields the next answer.
func (s *SliceStream) Next() (term.Value, bool, error) {
	if s.closed || s.idx >= len(s.vals) {
		return nil, false, nil
	}
	v := s.vals[s.idx]
	s.idx++
	if s.clock != nil && s.perTuple != nil {
		s.clock.Sleep(s.perTuple(v))
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
	// Bytes is the total transferred answer size.
	Bytes int
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
	inner    Stream
	clock    vclock.Clock
	call     Call
	setup    time.Duration // call issue -> stream creation
	acc      time.Duration // time spent inside Next
	first    time.Duration
	gotFirst bool
	count    int
	bytes    int
	done     bool
	onDone   func(Measurement)
}

// NewMeasuredStream wraps inner; onDone receives the measurement exactly
// once, when the stream is exhausted or closed. Measurement starts at the
// clock's current reading; use NewMeasuredStreamAt when the call was issued
// earlier (per-call costs accrue before the stream exists and must count).
func NewMeasuredStream(inner Stream, clock vclock.Clock, call Call, onDone func(Measurement)) *MeasuredStream {
	return NewMeasuredStreamAt(inner, clock, call, clock.Now(), onDone)
}

// NewMeasuredStreamAt is NewMeasuredStream with an explicit call-issue
// reading.
func NewMeasuredStreamAt(inner Stream, clock vclock.Clock, call Call, start time.Duration, onDone func(Measurement)) *MeasuredStream {
	return &MeasuredStream{inner: inner, clock: clock, call: call, setup: clock.Now() - start, onDone: onDone}
}

// Next forwards to the inner stream, recording first-answer time and
// cardinality.
func (s *MeasuredStream) Next() (term.Value, bool, error) {
	t0 := s.clock.Now()
	v, ok, err := s.inner.Next()
	s.acc += s.clock.Now() - t0
	if err != nil {
		return v, ok, err
	}
	if ok {
		if !s.gotFirst {
			s.gotFirst = true
			s.first = s.setup + s.acc
		}
		s.count++
		s.bytes += term.SizeBytes(v)
		return v, true, nil
	}
	s.finish(true)
	return nil, false, nil
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
	tf := s.first
	if !s.gotFirst {
		tf = s.setup + s.acc
	}
	m := Measurement{
		Call: s.call,
		Cost: CostVector{
			TFirst: tf,
			TAll:   s.setup + s.acc,
			Card:   float64(s.count),
		},
		Complete: complete,
		Bytes:    s.bytes,
	}
	if s.onDone != nil {
		s.onDone(m)
	}
}
