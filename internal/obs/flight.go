package obs

import (
	"io"
	"strconv"
	"sync"
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
// fact without re-running it. A slow-query threshold filters what is
// retained: 0 keeps every finished query, otherwise only queries whose
// duration meets the threshold are recorded (the rest are counted as
// skipped). Oldest records are evicted first. Safe for concurrent use;
// a nil recorder is a no-op.
type FlightRecorder struct {
	mu        sync.Mutex
	threshold time.Duration
	records   ring[FlightRecord]
	seq       int64
	skipped   int64
}

// NewFlightRecorder returns a recorder retaining the last capacity
// queries (minimum 1) at or above threshold (0 = keep everything).
func NewFlightRecorder(capacity int, threshold time.Duration) *FlightRecorder {
	return &FlightRecorder{records: newRing[FlightRecord](capacity), threshold: threshold}
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
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.seq++
	if f.threshold > 0 && d.Duration() < f.threshold {
		f.skipped++
		return
	}
	f.records.push(FlightRecord{
		Seq:        f.seq,
		Name:       d.Name,
		DurationMS: float64(d.Duration()) / float64(time.Millisecond),
		Root:       d,
	})
}

// Records returns the retained flight records, newest first.
func (f *FlightRecorder) Records() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.records.newestFirst()
}

// Stats returns how many finished queries were offered and how many
// were skipped for being under the threshold.
func (f *FlightRecorder) Stats() (offered, skipped int64) {
	if f == nil {
		return 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq, f.skipped
}

// WriteJSONL dumps the retained records oldest first, one JSON object
// per line (the /debug/flightrecorder format, also used for on-disk
// snapshots): the bytes json.Encoder writes for each FlightRecord. A nil
// recorder writes nothing.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	records := f.records.newestFirst()
	f.mu.Unlock()
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
