package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hermes/internal/term"
)

// DefaultFlightCapacity is how many finished root-span trees the
// observer's flight recorder retains by default.
const DefaultFlightCapacity = 256

// FlightRecord is one retained finished query: its root span tree plus
// enough envelope (sequence number, duration in ms) to scan a JSONL
// dump without walking the tree.
type FlightRecord struct {
	Seq        int64    `json:"seq"`
	Name       string   `json:"name"`
	DurationMS float64  `json:"duration_ms"`
	Root       SpanData `json:"root"`
}

// FlightRecorder is an always-on bounded ring of finished root-span
// trees, so a degraded production query can be explained after the
// fact without re-running it. It counts the queries Observer.StartQuery
// opens, and takes each finished one when its root ends. A slow-query
// threshold filters what is retained: 0 keeps every finished query,
// otherwise only queries whose duration meets the threshold are recorded
// (the rest are counted as skipped). Oldest records are evicted first. Safe
// for concurrent use; a nil recorder is a no-op.
type FlightRecorder struct {
	started   atomic.Int64
	mu        sync.Mutex
	threshold time.Duration
	// The ring: the last len(buf) records kept. A record overwrites the
	// oldest in place, so an evicted span tree is unreachable at once.
	buf     []FlightRecord
	next, n int // the slot the next record takes, records held
	seq     int64
	skipped int64
}

// NewFlightRecorder returns a recorder retaining the last capacity
// queries (minimum 1) at or above threshold (0 = keep everything).
func NewFlightRecorder(capacity int, threshold time.Duration) *FlightRecorder {
	return &FlightRecorder{buf: make([]FlightRecord, max(capacity, 1)), threshold: threshold}
}

// SetThreshold replaces the slow-query threshold (0 = keep everything).
func (f *FlightRecorder) SetThreshold(d time.Duration) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.threshold = d
	f.mu.Unlock()
}

// Record offers one finished root-span snapshot to the ring. Snapshots
// faster than the threshold are skipped.
func (f *FlightRecorder) Record(d SpanData) {
	if !f.skips(d.Duration()) {
		f.keep(d)
	}
}

// publish offers an ended root, taking a snapshot only of a query it
// keeps.
func (f *FlightRecorder) publish(s *Span) {
	if !f.skips(s.end - s.start) {
		f.keep(s.Snapshot())
	}
}

// skips reports whether a query that took d is under the threshold, and
// then counts it as offered and skipped; a nil recorder keeps nothing.
func (f *FlightRecorder) skips(d time.Duration) bool {
	if f == nil {
		return true
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.threshold > 0 && d < f.threshold {
		f.seq++
		f.skipped++
		return true
	}
	return false
}

// keep stores d as the newest record, whatever the threshold.
func (f *FlightRecorder) keep(d SpanData) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	f.buf[f.next] = FlightRecord{
		Seq:        f.seq,
		Name:       d.Name,
		DurationMS: float64(d.Duration()) / float64(time.Millisecond),
		Root:       d,
	}
	f.next = (f.next + 1) % len(f.buf)
	f.n = min(f.n+1, len(f.buf))
}

// Records returns the retained flight records, newest first.
func (f *FlightRecorder) Records() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FlightRecord, f.n)
	for i := range out {
		out[i] = f.buf[(f.next-1-i+len(f.buf))%len(f.buf)]
	}
	return out
}

// Counts returns how many queries were started, how many finished (were
// offered to the ring) and how many of those were skipped for being under
// the threshold.
func (f *FlightRecorder) Counts() (started, finished, skipped int64) {
	if f == nil {
		return 0, 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.started.Load(), f.seq, f.skipped
}

// WriteJSONL dumps the retained records oldest first, one JSON object
// per line (the /debug/flightrecorder format, also used for on-disk
// snapshots): the bytes json.Encoder writes for each FlightRecord. A nil
// recorder writes nothing.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	if f == nil {
		return nil
	}
	records := f.Records()
	var b []byte
	for i := len(records) - 1; i >= 0; i-- {
		r := &records[i]
		b = strconv.AppendInt(append(b[:0], `{"seq":`...), r.Seq, 10)
		b = term.AppendJSONString(append(b, `,"name":`...), r.Name)
		b = term.AppendJSONFloat(append(b, `,"duration_ms":`...), r.DurationMS)
		var err error
		if b, err = AppendSpanJSON(append(b, `,"root":`...), r.Root); err != nil {
			return err
		}
		b = append(b, "}\n"...)
		if _, err = w.Write(b); err != nil {
			return err
		}
	}
	return nil
}
