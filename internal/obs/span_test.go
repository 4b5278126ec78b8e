package obs

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := NewTracer(4)
	root := tr.StartQuery("?- q(X).", 10*time.Millisecond)
	root.SetTag("answers", "2")
	call := root.Child("call d:f(1)", 12*time.Millisecond)
	call.SetTag("cim", "exact")
	call.SetEstimate(Cost{TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 3})
	call.SetActual(Cost{TFirst: time.Millisecond, TAll: 3 * time.Millisecond, Card: 3})
	call.End(15 * time.Millisecond)

	if got := tr.Recent(); len(got) != 0 {
		t.Fatalf("published before root end: %v", got)
	}
	root.End(20 * time.Millisecond)
	root.End(25 * time.Millisecond) // idempotent

	recent := tr.Recent()
	if len(recent) != 1 {
		t.Fatalf("recent = %d, want 1", len(recent))
	}
	d := recent[0]
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
	if _, ok := recent[0].Tags.Lookup("late"); ok {
		t.Error("snapshot aliased live span")
	}
	started, finished := tr.Counts()
	if started != 1 || finished != 1 {
		t.Errorf("counts = %d, %d", started, finished)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		s := tr.StartQuery(fmt.Sprintf("q%d", i), 0)
		s.End(time.Duration(i))
	}
	recent := tr.Recent()
	if len(recent) != 3 {
		t.Fatalf("retained = %d, want 3", len(recent))
	}
	// Newest first.
	for i, want := range []string{"q4", "q3", "q2"} {
		if recent[i].Name != want {
			t.Errorf("recent[%d] = %s, want %s", i, recent[i].Name, want)
		}
	}
	// Eviction is oldest-first: the two dropped queries must be the two
	// oldest, and the internal ring must hold survivors oldest first.
	for _, d := range recent {
		if d.Name == "q0" || d.Name == "q1" {
			t.Errorf("oldest query %s survived eviction", d.Name)
		}
	}
	tr.mu.Lock()
	internal := tr.recent.newestFirst()
	slices.Reverse(internal)
	tr.mu.Unlock()
	for i, want := range []string{"q2", "q3", "q4"} {
		if internal[i].Name != want {
			t.Errorf("ring[%d] = %s, want %s (oldest-first retention)", i, internal[i].Name, want)
		}
	}
}

func TestTracerOnPublishHook(t *testing.T) {
	tr := NewTracer(2)
	var seen []string
	tr.SetOnPublish(func(d SpanData) { seen = append(seen, d.Name) })
	for i := 0; i < 3; i++ {
		s := tr.StartQuery(fmt.Sprintf("q%d", i), 0)
		s.End(time.Duration(i))
	}
	if len(seen) != 3 || seen[0] != "q0" || seen[2] != "q2" {
		t.Errorf("onPublish saw %v, want every finished query in order", seen)
	}
	var nilT *Tracer
	nilT.SetOnPublish(func(SpanData) {}) // must not panic
}

// TestSpanConcurrentTagging runs tag/child/snapshot operations from many
// goroutines; run with -race.
func TestSpanConcurrentTagging(t *testing.T) {
	tr := NewTracer(8)
	root := tr.StartQuery("q", 0)
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
	d := tr.Recent()[0]
	if len(d.Children) != 8*200 {
		t.Errorf("children = %d, want %d", len(d.Children), 8*200)
	}
}
