package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// span is one timed interval at a layer boundary. Times are wall time since
// the recorder's epoch; Parent is the index of the span that caused it, or
// -1 for a query's root.
type span struct {
	Name   string        `json:"name"`
	Query  int           `json:"query"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. The driver opens and
// closes spans around its calls into each layer; source calls, which the
// engine may issue from several goroutines, attach to whichever span the
// driver marked current.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// current is the span source calls attach to, and query the query they
	// belong to; the traced run has one query in flight at a time.
	current atomic.Int64
	query   atomic.Int64
}

func newRecorder() *recorder {
	r := &recorder{epoch: time.Now()}
	r.current.Store(-1)
	return r
}

// start opens a span and returns its index.
func (r *recorder) start(name string, parent int) int {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Query: int(r.query.Load()), Parent: parent, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes a span.
func (r *recorder) end(id int) {
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// (parallel source calls) and are clipped to the parent, so the covered
// part is the length of the union of their intervals.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := time.Duration(0), s.Start
		for _, k := range kids {
			from, to := spans[k].Start, spans[k].End
			if from < reach {
				from = reach
			}
			if to > s.End {
				to = s.End
			}
			if to > from {
				covered += to - from
				reach = to
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// countingDomain passes every call through to the source it wraps. It
// always counts calls and answers (the paper's Figure 5 quantity); with a
// recorder it also records a span around the call and around every Next,
// so source time is the time spent inside the source. The interval from
// open to exhaustion would not do: the pipelined engine keeps an outer
// stream open while it evaluates the inner literals.
type countingDomain struct {
	inner   domain.Domain
	rec     *recorder // set for the traced replay only
	calls   atomic.Int64
	answers atomic.Int64
}

func (d *countingDomain) Name() string                 { return d.inner.Name() }
func (d *countingDomain) Functions() []domain.FuncSpec { return d.inner.Functions() }

// Inner lets core.System.Register find the wrapped source's estimator,
// observer and trace hooks.
func (d *countingDomain) Inner() domain.Domain { return d.inner }

// open starts a span under the recorder's current span, or returns -1 when
// no recorder is attached; done closes what open returned.
func (d *countingDomain) open(name string) int {
	if d.rec == nil {
		return -1
	}
	return d.rec.start(name, int(d.rec.current.Load()))
}

func (d *countingDomain) done(id int) {
	if id >= 0 {
		d.rec.end(id)
	}
}

func (d *countingDomain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	d.calls.Add(1)
	id := d.open("source.call")
	s, err := d.inner.Call(ctx, fn, args)
	d.done(id)
	if err != nil {
		return nil, err
	}
	return &countingStream{inner: s, dom: d}, nil
}

type countingStream struct {
	inner domain.Stream
	dom   *countingDomain
}

func (s *countingStream) Next() (term.Value, bool, error) {
	id := s.dom.open("source.next")
	v, ok, err := s.inner.Next()
	s.dom.done(id)
	if ok {
		s.dom.answers.Add(1)
	}
	return v, ok, err
}

func (s *countingStream) Close() error { return s.inner.Close() }
