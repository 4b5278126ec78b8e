package main

import (
	"testing"
	"time"
)

// TestSelfTimes checks self time on a hand-built tree: two children that
// overlap each other (parallel source calls), one that outlives its parent
// and is clipped to it, and a grandchild.
func TestSelfTimes(t *testing.T) {
	at := func(n int) time.Duration { return time.Duration(n) * time.Microsecond }
	spans := []span{
		{Name: "query", Parent: -1, Start: at(0), End: at(100)},
		{Name: "a", Parent: 0, Start: at(10), End: at(40)},
		{Name: "b", Parent: 0, Start: at(30), End: at(60)},
		{Name: "late", Parent: 0, Start: at(70), End: at(120)},
		{Name: "a.inner", Parent: 1, Start: at(15), End: at(25)},
		{Name: "other query", Parent: -1, Start: at(200), End: at(230)},
	}
	// The root's children cover [10,60] and [70,100]: 80 of its 100.
	want := []time.Duration{at(20), at(20), at(30), at(50), at(10), at(30)}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %v, want %v", spans[i].Name, got[i], want[i])
		}
	}
}
