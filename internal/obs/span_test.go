package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestSpanTreeAndSnapshot(t *testing.T) {
	f := NewFlightRecorder(4, 0)
	tr := NewTracer(f)
	root := tr.StartQuery("?- q(X).", 10*time.Millisecond)
	root.SetTag("answers", "2")
	call := root.Child("call d:f(1)", 12*time.Millisecond)
	call.SetTag("cim", "exact")
	call.SetEstimate(Cost{TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 3})
	call.SetActual(Cost{TFirst: time.Millisecond, TAll: 3 * time.Millisecond, Card: 3})
	call.End(15 * time.Millisecond)

	if got := f.Records(); len(got) != 0 {
		t.Fatalf("published before root end: %v", got)
	}
	root.End(20 * time.Millisecond)
	root.End(25 * time.Millisecond) // idempotent

	recent := f.Records()
	if len(recent) != 1 {
		t.Fatalf("recent = %d, want 1", len(recent))
	}
	d := recent[0].Root
	if d.Name != "?- q(X)." || d.Duration() != 10*time.Millisecond {
		t.Errorf("root snapshot = %+v", d)
	}
	if len(d.Children) != 1 {
		t.Fatalf("children = %d", len(d.Children))
	}
	c := d.Children[0]
	if c.Tag("cim") != "exact" {
		t.Errorf("child tags = %v", c.Tags)
	}
	if c.Est == nil || c.Actual == nil || c.Est.Card != 3 {
		t.Errorf("child costs = est %+v actual %+v", c.Est, c.Actual)
	}
	// The snapshot is detached: later mutation must not leak in.
	root.SetTag("late", "yes")
	if _, ok := d.Tags.Lookup("late"); ok {
		t.Error("snapshot aliased live span")
	}
	started, finished := tr.Counts()
	if started != 1 || finished != 1 {
		t.Errorf("counts = %d, %d", started, finished)
	}
}

// TestSpanConcurrentTagging runs tag/child/snapshot operations from many
// goroutines; run with -race.
func TestSpanConcurrentTagging(t *testing.T) {
	f := NewFlightRecorder(1, 0)
	root := NewTracer(f).StartQuery("q", 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := root.Child(fmt.Sprintf("c%d", g), time.Duration(i))
				c.SetTag("k", "v")
				c.SetActual(Cost{Card: float64(i)})
				c.End(time.Duration(i + 1))
				root.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	root.End(time.Second)
	d := f.Records()[0].Root
	if len(d.Children) != 8*200 {
		t.Errorf("children = %d, want %d", len(d.Children), 8*200)
	}
}

// TestTraceIDOncePerTree: a span tree has one trace ID, minted on first
// use through any span of it; a served tree keeps the one its caller sent.
// Only a root keeps the ID; a span record stays within 192 bytes.
func TestTraceIDOncePerTree(t *testing.T) {
	root := NewTracer(nil).StartQuery("?- q.", 0)
	leaf := root.Child("plan", 0).Lane(1).Child("call d:f()", 0)
	id := leaf.TraceID()
	if len(id) != 16 || root.TraceID() != id || leaf.TraceID() != id {
		t.Errorf("trace IDs %q (leaf, first), %q (root), %q (leaf again): want one 16-hex-digit ID", id, root.TraceID(), leaf.TraceID())
	}
	if other := NewSpan("?- q.", 0).TraceID(); other == id {
		t.Errorf("two trees share trace ID %q", id)
	}
	served := NewSpan("serve d:f", 0)
	served.SetTraceID("cafe0123cafe0123")
	if got := served.Child("call e:g()", 0).TraceID(); got != "cafe0123cafe0123" {
		t.Errorf("a served tree's call carries %q, want its caller's", got)
	}
	if (*Span)(nil).TraceID() != "" {
		t.Error("a nil span has a trace ID")
	}
	var s Span
	if n := unsafe.Sizeof(s); n > 192 {
		t.Errorf("a span record is %d bytes, past 192", n)
	}
}
