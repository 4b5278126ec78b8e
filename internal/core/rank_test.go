package core

import (
	"fmt"
	"strings"
	"testing"
)

// TestRankAllocsPer gates what ranking a warm query's candidates
// allocates, with the CIM and the memo on: each cache_hot form's, and a
// query whose shape has many candidates. Ranking walks each candidate's
// compiled program in one recycled scratch (a frame of plan-time values
// and the pattern, call and memo key buffers), so what it allocates does
// not grow with the number of candidates.
//
// Measured (go1.24, linux/amd64): 0, 0, 8 and 0 objects for the four
// forms, and 0 over 4 and over 24 candidates. Form 2's call has no
// statistics, and the DCSM formats the error it returns for that. While
// the estimator walked the rules by name, form 0 and form 3 spent 6 each
// on the memo key alone.
func TestRankAllocsPer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	sys := hotSystem(t)
	rank := func(q string, ceiling float64) {
		t.Helper()
		if _, _, err := sys.QueryAll(q); err != nil {
			t.Fatal(err)
		}
		plans, err := sys.Plans(q)
		if err != nil {
			t.Fatal(err)
		}
		n := testing.AllocsPerRun(100, func() {
			if _, _, _, err := sys.estimator.Best(plans, false); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %v objects over %d candidates", q, n, len(plans))
		if n > ceiling {
			t.Errorf("%s: ranking %d candidates allocates %v objects, want at most %v", q, len(plans), n, ceiling)
		}
	}
	for _, q := range hotForms(82, 115) {
		if _, _, err := sys.QueryAll(q); err != nil {
			t.Fatal(err)
		}
	}
	for i, q := range hotForms(90, 130) {
		rank(q, []float64{1, 1, 10, 1}[i])
	}
	// v has k access-equivalent rules, each with two orders: ?- v(A). has
	// more candidates the larger k is, under the same ceiling.
	for _, k := range []int{2, 10} {
		var b strings.Builder
		b.WriteString("access_equivalent('v', 1).\n")
		for i := 0; i < k; i++ {
			fmt.Fprintf(&b, "v(A) :- in(A, avis:actors('rope')) & in(O, avis:objects_in_range('rope', %d, 200)).\n", i)
		}
		if err := sys.LoadProgram(hotProgram + b.String()); err != nil {
			t.Fatal(err)
		}
		rank("?- v(A).", 1)
	}
}
