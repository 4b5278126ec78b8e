package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Cost is the paper's [Tf, Ta, Card] cost vector: time to first answer,
// time to all answers, and answer-set cardinality. Spans carry one as the
// planner's estimate and one as the measured actual, so EXPLAIN can show
// estimation error per node.
type Cost struct {
	TFirst time.Duration
	TAll   time.Duration
	Card   float64
}

// String renders the vector the way the experiments report it.
func (c Cost) String() string {
	return fmt.Sprintf("[Tf=%dms Ta=%dms Card=%.2f]", c.TFirst.Milliseconds(), c.TAll.Milliseconds(), c.Card)
}

// Appender renders a value, a span's name or a tag's, onto dst. A span
// keeps the appender it is given and calls it when its tree is first read,
// under the tree's lock: an appender must not change for as long as the
// tree lives, and must not call the tree's spans.
type Appender interface{ AppendTo(dst []byte) []byte }

// Span is one node of a query trace: a named, clock-stamped interval with
// outcome tags (cim=exact, breaker=open, ...), optional estimated and
// actual cost vectors, and child spans. Spans are safe for concurrent use
// and every method is nil-receiver safe, so instrumented code can thread a
// possibly-nil span without conditionals.
//
// A Span is a record in its tree's storage (see tree): a value set as a
// number or an Appender stays one until the tree is first read, and a
// string is kept as given.
//
// A snapshot lists children by start time, and same-instant children by
// the rank of the Lane that opened them, then in the order they were
// opened: a tree timed on a virtual clock renders the same on every run.
type Span struct {
	tr          *tree
	name        string
	nameA       Appender // renders the name instead, when set
	start, end  time.Duration
	est, actual Cost
	id          int32 // this record's index in its tree
	kids, next  int32 // newest child, next older sibling (0: none; the root is no child)
	tags        int32 // 1 + the newest tag record (0: none)
	lane        uint32
	flags       uint8
}

const (
	ended uint8 = 1 << iota
	hasEst
	hasActual
	hasForeign
	handle // a Lane handle: kids is the span it stands for
)

// NewSpan opens a standalone root span outside any tracer: ending it
// publishes nothing. The remote server uses it for per-call serve spans
// that travel back to the caller in a trace frame rather than entering the
// server's own /debug/queries ring.
func NewSpan(name string, at time.Duration) *Span {
	tr := new(tree)
	tr.open, tr.nodes = 1, 1
	s := tr.newSpan()
	s.name, s.start = name, at
	return s
}

// lock locks s's tree and returns the span s stands for: itself, or a
// Lane handle's span.
func (s *Span) lock() *Span {
	s.tr.mu.Lock()
	if s.flags&handle != 0 {
		return s.tr.span(s.kids)
	}
	return s
}

// write runs f on the span s stands for, under the tree's lock; a write
// to an ended span invalidates the tree's build.
func (s *Span) write(f func(t *Span)) {
	if s == nil {
		return
	}
	t := s.lock()
	f(t)
	if t.flags&ended != 0 {
		s.tr.built, s.tr.pos = nil, nil
	}
	s.tr.mu.Unlock()
}

// TraceID returns the federated trace ID of s's tree: the one SetTraceID
// gave it, or else one minted on first use, so every remote call of one
// query carries the same ID. On a nil span it returns "".
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	tr := s.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.traceID == "" {
		var b [8]byte
		rand.Read(b[:])
		tr.traceID = hex.EncodeToString(b[:])
	}
	return tr.traceID
}

// SetTraceID makes id the trace ID of s's tree: a served call's span tree
// keeps its caller's, and forwards it to the calls it makes in turn.
func (s *Span) SetTraceID(id string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.traceID = id
	s.tr.mu.Unlock()
}

// Lane returns a handle on s for the concurrent branch of launch rank r
// (0 first). Every method acts on s, but children opened through the
// handle list after same-instant siblings opened by s itself or by
// lower-ranked lanes. On a nil span it returns nil.
func (s *Span) Lane(r int) *Span {
	if s == nil {
		return nil
	}
	t := s.lock()
	h := s.tr.newSpan()
	h.flags, h.kids, h.lane = handle, t.id, s.lane<<8|uint32(r+1)
	s.tr.mu.Unlock()
	return h
}

// Child opens a sub-span starting at execution-clock reading at. On a nil
// span it returns nil (tracing off).
func (s *Span) Child(name string, at time.Duration) (c *Span) {
	s.write(func(p *Span) {
		c = p.tr.newSpan()
		c.name, c.start, c.lane = name, at, s.lane
		c.next, p.kids = p.kids, c.id
		p.tr.open++
		p.tr.nodes++
	})
	return c
}

// SetName names s by what a renders.
func (s *Span) SetName(a Appender) { s.write(func(t *Span) { t.nameA = a }) }

// SetTag records an outcome tag. Later values overwrite earlier ones. A
// tree holds a key as its index among the keys interned for the life of
// the process, so keys are the outcome names of the call sites, not data.
func (s *Span) SetTag(k, v string) { s.setTag(k, tagRec{v: v}, nil) }

// SetTagInt records an integer tag, rendered in decimal.
func (s *Span) SetTagInt(k string, v int) { s.setTag(k, tagRec{n: uint64(v), kind: tagInt}, nil) }

// SetTagMillis records a duration tag, rendered as AppendMillis does.
func (s *Span) SetTagMillis(k string, d time.Duration) {
	s.setTag(k, tagRec{n: uint64(d), kind: tagMillis}, nil)
}

// SetTagFixed records a number tag, rendered as AppendFixed does with
// prec (at most 255) decimals.
func (s *Span) SetTagFixed(k string, f float64, prec int) {
	s.setTag(k, tagRec{n: math.Float64bits(f), kind: tagFixed, prec: uint8(prec)}, nil)
}

// SetTagFrom records a tag whose value a renders.
func (s *Span) SetTagFrom(k string, a Appender) { s.setTag(k, tagRec{kind: tagApp}, a) }

func (s *Span) setTag(k string, v tagRec, a Appender) {
	if s == nil {
		return
	}
	v.key = keyOf(k)
	s.write(func(t *Span) { t.tr.setTag(t, v, a) })
}

// SetEstimate attaches the planner's estimated cost vector.
func (s *Span) SetEstimate(c Cost) { s.setCost(c, hasEst) }

// SetActual attaches the measured cost vector.
func (s *Span) SetActual(c Cost) { s.setCost(c, hasActual) }

func (s *Span) setCost(c Cost, which uint8) {
	s.write(func(t *Span) {
		if t.flags&which == 0 {
			t.tr.costs++
		}
		if t.flags |= which; which == hasEst {
			t.est = c
		} else {
			t.actual = c
		}
	})
}

// AttachForeign grafts an already-snapshotted subtree — a remote peer's
// serve span, rebased onto this clock — under s. Snapshot renders foreign
// subtrees after the locally opened children. The tree keeps d, which must
// not change once attached. Nil-receiver safe.
func (s *Span) AttachForeign(d *SpanData) {
	s.write(func(t *Span) {
		t.tr.foreign = &foreignSub{span: t.id, d: d, next: t.tr.foreign}
		t.flags |= hasForeign
		t.tr.nodes++
	})
}

// End closes the span at execution-clock reading at. Ending a span twice
// is a no-op; ending a root span publishes its snapshot to the Tracer.
func (s *Span) End(at time.Duration) {
	if s == nil {
		return
	}
	t, tr := s.lock(), s.tr
	if t.flags&ended != 0 {
		tr.mu.Unlock()
		return
	}
	t.flags |= ended
	t.end = at
	tr.open--
	tr.mu.Unlock()
	if t.id == 0 && tr.tracer != nil {
		tr.tracer.publish(t)
	}
}

// Snapshot returns the span tree under s as immutable data for rendering.
// A still-open span snapshots with End == Start.
//
// The root's tree is built once, in a fixed set of allocations none of
// which points into the tree's records (see tree.build), and every later
// Snapshot of the wholly ended tree shares that build, so a SpanData is
// read-only, until a write to an ended span invalidates it. A tree still
// holding an open span is rebuilt per call, sharing the subtrees beside it
// that had ended. A span under the root builds its own subtree afresh.
func (s *Span) Snapshot() SpanData {
	if s == nil {
		return SpanData{}
	}
	t, tr := s.lock(), s.tr
	defer tr.mu.Unlock()
	if t.id == 0 && tr.built != nil && tr.pos == nil {
		return tr.built[0]
	}
	b := builders.Get().(*builder)
	defer b.release()
	return tr.build(b, t, t.id == 0)
}

// WithSnapshot calls f with a snapshot of the tree under s that is built
// for the call alone, into arrays reused from call to call: f must keep
// nothing of it. The remote server encodes a served call's tree into its
// trace frame so; a Snapshot there would leave a build of its own in every
// served tree, 2.9 allocations and 150 B per remote call.
func (s *Span) WithSnapshot(f func(SpanData)) {
	if s == nil {
		f(SpanData{})
		return
	}
	b := builders.Get().(*builder)
	defer b.release()
	b.scratch = true
	t, tr := s.lock(), s.tr
	d := tr.build(b, t, false)
	tr.mu.Unlock()
	f(d) // the build is b's, not the tree's
}

// SpanData is an immutable span-tree snapshot.
type SpanData struct {
	Name     string        `json:"name"`
	Start    time.Duration `json:"start"`
	End      time.Duration `json:"end"`
	Tags     Tags          `json:"tags,omitempty"`
	Est      *Cost         `json:"est,omitempty"`
	Actual   *Cost         `json:"actual,omitempty"`
	Children []SpanData    `json:"children,omitempty"`
}

// Duration is the span's clock extent.
func (d SpanData) Duration() time.Duration { return d.End - d.Start }

// Tag returns the value of tag k, "" when the span does not carry it.
func (d SpanData) Tag(k string) string {
	v, _ := d.Tags.Lookup(k)
	return v
}

// Tracer creates root query spans and hands every finished span tree to
// its flight recorder, whose ring /debug/queries renders. It is safe for
// concurrent use; a nil Tracer disables tracing.
type Tracer struct {
	started, finished atomic.Int64
	flight            *FlightRecorder // nil keeps no trees
}

// NewTracer returns a tracer publishing finished query spans to f.
func NewTracer(f *FlightRecorder) *Tracer {
	return &Tracer{flight: f}
}

// StartQuery opens a root span for one query at execution-clock reading
// at. Ending the returned span publishes its snapshot to the flight
// recorder. On a nil tracer it returns nil.
func (t *Tracer) StartQuery(name string, at time.Duration) *Span {
	if t == nil {
		return nil
	}
	t.started.Add(1)
	s := NewSpan(name, at)
	s.tr.tracer = t
	return s
}

// publish offers an ended root to the flight recorder, which takes a
// snapshot only of a query it keeps.
func (t *Tracer) publish(s *Span) {
	t.finished.Add(1)
	if !t.flight.skips(s.end - s.start) {
		t.flight.Record(s.Snapshot())
	}
}

// Counts returns how many query spans were started and finished.
func (t *Tracer) Counts() (started, finished int64) {
	if t == nil {
		return 0, 0
	}
	return t.started.Load(), t.finished.Load()
}

// Observer bundles the observability facilities the system threads
// through its layers: a metrics registry, a query tracer and a flight
// recorder. It only records: a layer behaves the same with or without
// one. A nil Observer (or nil fields) disables the corresponding
// facility; every method is nil-receiver safe.
type Observer struct {
	Metrics *Registry
	Tracer  *Tracer
	Flight  *FlightRecorder
}

// NewObserver returns an observer with a fresh registry and a flight
// recorder (keep-everything threshold) fed by the tracer.
func NewObserver() *Observer {
	o := &Observer{
		Metrics: NewRegistry(),
		Flight:  NewFlightRecorder(DefaultFlightCapacity, 0),
	}
	o.Tracer = NewTracer(o.Flight)
	return o
}

// StartQuery forwards to the tracer (nil-safe).
func (o *Observer) StartQuery(name string, at time.Duration) *Span {
	if o == nil {
		return nil
	}
	return o.Tracer.StartQuery(name, at)
}

// Registry returns the metrics registry, nil (whose methods are no-ops)
// for a nil observer: what a layer's SetObserver attaches its tallies to.
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.Metrics
}

// Counter forwards to the registry (nil-safe; returns a no-op counter).
func (o *Observer) Counter(name string, labels ...string) *Counter {
	return o.Registry().Counter(name, labels...)
}
