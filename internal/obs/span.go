package obs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
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

// Span is one node of a query trace: a named, clock-stamped interval with
// string outcome tags (cim=exact, breaker=open, ...), optional estimated
// and actual cost vectors, and child spans. Spans are safe for concurrent
// use and every method is nil-receiver safe, so instrumented code can
// thread a possibly-nil span without conditionals.
//
// Once a span and everything under it has ended, the first Snapshot
// freezes the subtree: its SpanData is built once and handed out by every
// later Snapshot. A write to an ended span moves the tree's generation
// on, which un-freezes the span and every ancestor frozen with it.
//
// A snapshot lists children by start time, and same-instant children by
// the rank of the Lane that opened them, then in the order they were
// opened: a tree timed on a virtual clock renders the same on every run.
type Span struct {
	mu       sync.Mutex
	name     string
	start    time.Duration
	end      time.Duration
	tags     Tags // once ended, shared with the SpanData handed out
	est      *Cost
	actual   *Cost
	children []*Span
	foreign  []SpanData    // stitched remote subtrees, rendered after children
	kids     []SpanData    // the Children handed out while frozen
	root     *Span         // the tree's root (a root's is itself); a Lane handle's span
	tracer   *Tracer       // on a root the Tracer started: End publishes to it
	gen      atomic.Uint64 // on the root: writes to ended spans of the tree
	frozenAt uint64        // the generation, plus one, kids was built at
	ended    bool
	handle   bool   // s is a Lane handle
	lane     uint32 // sibling rank; children opened through s inherit it
}

// NewSpan opens a standalone root span outside any tracer: ending it
// publishes nothing. The remote server uses it for per-call serve spans
// that travel back to the caller in a trace frame rather than entering the
// server's own /debug/queries ring.
func NewSpan(name string, at time.Duration) *Span {
	s := &Span{name: name, start: at}
	s.root = s
	return s
}

// Lane returns a handle on s for the concurrent branch of launch rank r
// (0 first). Every method acts on s, but children opened through the
// handle list after same-instant siblings opened by s itself or by
// lower-ranked lanes. On a nil span it returns nil.
func (s *Span) Lane(r int) *Span {
	if s == nil {
		return nil
	}
	return &Span{root: s.target(), handle: true, lane: s.lane<<8 | uint32(r+1)}
}

// target is the span s stands for: itself, or a Lane handle's span.
func (s *Span) target() *Span {
	if s != nil && s.handle {
		return s.root
	}
	return s
}

// write runs f on s's target t under t's lock. A write to an ended span
// may contradict a frozen tree: it moves the generation on, which
// un-freezes t and its ancestors for every Snapshot that starts after the
// writer returns.
func (s *Span) write(f func(t *Span)) {
	t := s.target()
	if t == nil {
		return
	}
	t.mu.Lock()
	f(t)
	if t.ended {
		t.root.gen.Add(1)
	}
	t.mu.Unlock()
}

// Child opens a sub-span starting at execution-clock reading at. On a nil
// span it returns nil (tracing off).
func (s *Span) Child(name string, at time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: at, root: s.target().root, lane: s.lane}
	s.write(func(t *Span) { t.children = append(t.children, c) })
	return c
}

// SetTag records an outcome tag. Later values overwrite earlier ones.
func (s *Span) SetTag(k, v string) {
	s.write(func(t *Span) {
		if t.ended {
			t.tags = slices.Clone(t.tags) // handed-out SpanData keep the old ones
		}
		t.tags = t.tags.set(k, v)
	})
}

// SetEstimate attaches the planner's estimated cost vector.
func (s *Span) SetEstimate(c Cost) { s.write(func(t *Span) { t.est = &c }) }

// SetActual attaches the measured cost vector.
func (s *Span) SetActual(c Cost) { s.write(func(t *Span) { t.actual = &c }) }

// AttachForeign grafts an already-snapshotted subtree — a remote peer's
// serve span, rebased onto this clock — under s. Snapshot renders foreign
// subtrees after the locally opened children. Nil-receiver safe.
func (s *Span) AttachForeign(d SpanData) {
	s.write(func(t *Span) { t.foreign = append(t.foreign, d) })
}

// End closes the span at execution-clock reading at. Ending a span twice
// is a no-op; ending a root span publishes its snapshot to the Tracer.
func (s *Span) End(at time.Duration) {
	s = s.target()
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.end = at
	s.mu.Unlock()
	if s.tracer != nil {
		s.tracer.publish(s)
	}
}

// Snapshot returns the span tree as immutable data for rendering. A
// still-open span snapshots with End == Start, and a tree holding one is
// rebuilt on every call; a tree that has wholly ended is built by the
// first call and shared by every later one, so a SpanData is read-only.
func (s *Span) Snapshot() SpanData {
	s = s.target()
	if s == nil {
		return SpanData{}
	}
	d, _ := s.snapshot(s.root.gen.Load() + 1)
	return d
}

// snapshot returns s's subtree and whether all of it has ended, in which
// case it is now frozen at generation gen; a write to an ended span during
// the build moves the generation on, so the next call rebuilds. The lock
// is held across the children (locks nest parent → child only), so
// concurrent Snapshots of an ended tree wait for one build and share it.
func (s *Span) snapshot(gen uint64) (SpanData, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := SpanData{Name: s.name, Start: s.start, End: s.end, Tags: s.tags, Est: s.est, Actual: s.actual}
	if s.frozenAt == gen {
		d.Children = s.kids
		return d, true
	}
	all := s.ended
	if !all {
		d.End, d.Tags = s.start, slices.Clone(s.tags) // still being written
	}
	if n := len(s.children) + len(s.foreign); n > 0 {
		d.Children = make([]SpanData, 0, n)
		slices.SortStableFunc(s.children, func(a, b *Span) int {
			// start and lane never change once a child is opened.
			return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.lane, b.lane))
		})
		for _, c := range s.children {
			cd, ok := c.snapshot(gen)
			d.Children, all = append(d.Children, cd), all && ok
		}
		d.Children = append(d.Children, s.foreign...)
	}
	if all {
		s.kids, s.frozenAt = d.Children, gen
	}
	return d, all
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
	s.tracer = t
	return s
}

func (t *Tracer) publish(s *Span) {
	d := s.Snapshot()
	t.finished.Add(1)
	t.flight.Record(d)
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

// Gauge forwards to the registry (nil-safe).
func (o *Observer) Gauge(name string, labels ...string) *Gauge {
	return o.Registry().Gauge(name, labels...)
}

// Histogram forwards to the registry (nil-safe).
func (o *Observer) Histogram(name string, labels ...string) *Histogram {
	return o.Registry().Histogram(name, labels...)
}
