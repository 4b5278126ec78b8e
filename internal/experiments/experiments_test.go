package experiments

import (
	"testing"
	"time"
)

// findRow locates a Figure 5 cell.
func findRow(t *testing.T, rows []Fig5Row, queryPrefix, config, site string) Fig5Row {
	t.Helper()
	for _, r := range rows {
		if r.Config == config && r.Site == site && len(r.Query) >= len(queryPrefix) &&
			r.Query[:len(queryPrefix)] == queryPrefix {
			return r
		}
	}
	t.Fatalf("no row for %q/%s/%s", queryPrefix, config, site)
	return Fig5Row{}
}

func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4*2*4 {
		t.Fatalf("rows = %d, want 32", len(rows))
	}
	for _, q := range []string{"Find all actors", "Find actors and", "Find the objects between frames 4 and 47", "Find the objects between frames 4 and 127"} {
		for _, site := range []string{"usa-east", "italy"} {
			noCache := findRow(t, rows, q, "no cache, no invar.", site)
			cacheOnly := findRow(t, rows, q, "cache only", site)
			equality := findRow(t, rows, q, "cache + equality inv.", site)
			partial := findRow(t, rows, q, "cache + partial inv.", site)

			// 1. Caching always wins over remote calls: both Tf and Ta.
			if cacheOnly.TAll >= noCache.TAll || cacheOnly.TFirst >= noCache.TFirst {
				t.Errorf("[%s/%s] cache only (%v/%v) not faster than no cache (%v/%v)",
					q, site, cacheOnly.TFirst, cacheOnly.TAll, noCache.TFirst, noCache.TAll)
			}
			// 2. Equality invariants beat the actual call but cost more than
			// an exact hit. query2 is the paper's own exception (its 1897 ms
			// equality Tf exceeds the 1459 ms no-cache Tf): a later remote
			// call gates the first answer there.
			if q != "Find actors and" && equality.TFirst >= noCache.TFirst {
				t.Errorf("[%s/%s] equality Tf %v not under no-cache %v", q, site, equality.TFirst, noCache.TFirst)
			}
			if equality.TFirst <= cacheOnly.TFirst {
				t.Errorf("[%s/%s] equality Tf %v should exceed exact-hit Tf %v (invariant matching overhead)",
					q, site, equality.TFirst, cacheOnly.TFirst)
			}
			// 3. Partial invariants: fast first answer when the cached call
			// opens the pipeline (all queries except query2, where — as in
			// the paper's 1983 ms vs 1459 ms row — a later remote call still
			// gates the first answer), but all answers need the actual
			// call, so Ta is near (or above) the no-cache Ta.
			if q != "Find actors and" && partial.TFirst >= noCache.TFirst/2 {
				t.Errorf("[%s/%s] partial Tf %v not far under no-cache %v", q, site, partial.TFirst, noCache.TFirst)
			}
			if partial.TAll < noCache.TAll/2 {
				t.Errorf("[%s/%s] partial Ta %v implausibly under no-cache %v (actual call must still run)",
					q, site, partial.TAll, noCache.TAll)
			}
			// 4. The partial configuration served some cached answers.
			if partial.FromCache == 0 {
				t.Errorf("[%s/%s] partial config served nothing from cache", q, site)
			}
			// 5. Same answers in every configuration.
			if cacheOnly.Tuples != noCache.Tuples || equality.Tuples != noCache.Tuples || partial.Tuples != noCache.Tuples {
				t.Errorf("[%s/%s] tuple counts differ: %d/%d/%d/%d",
					q, site, noCache.Tuples, cacheOnly.Tuples, equality.Tuples, partial.Tuples)
			}
		}
		// 6. Italy is far slower than USA without a cache, and the cached
		// runs are site-independent (the cache is local to the mediator).
		usaNo := findRow(t, rows, q, "no cache, no invar.", "usa-east")
		itaNo := findRow(t, rows, q, "no cache, no invar.", "italy")
		if itaNo.TAll < 3*usaNo.TAll {
			t.Errorf("[%s] Italy no-cache %v not ≫ USA %v", q, itaNo.TAll, usaNo.TAll)
		}
		usaCache := findRow(t, rows, q, "cache only", "usa-east")
		itaCache := findRow(t, rows, q, "cache only", "italy")
		if usaCache.TAll != itaCache.TAll {
			t.Errorf("[%s] cached run depends on site: %v vs %v", q, usaCache.TAll, itaCache.TAll)
		}
	}
	// The USA no-cache actors query lands in the paper's magnitude regime
	// (1776 ms first / 2581 ms all in the paper).
	actors := findRow(t, rows, "Find all actors", "no cache, no invar.", "usa-east")
	if actors.TFirst < 500*time.Millisecond || actors.TFirst > 5*time.Second {
		t.Errorf("actors USA Tf = %v, out of regime", actors.TFirst)
	}
	if actors.TAll < actors.TFirst || actors.TAll > 10*time.Second {
		t.Errorf("actors USA Ta = %v, out of regime", actors.TAll)
	}
}

func TestFigure5Deterministic(t *testing.T) {
	a, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs across runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	rows, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	relErr := func(pred, actual time.Duration) float64 {
		if actual == 0 {
			return 0
		}
		d := float64(pred-actual) / float64(actual)
		if d < 0 {
			return -d
		}
		return d
	}
	for _, r := range rows {
		// All-answer predictions from lossless statistics closely match the
		// actual running times (the paper's observation 1).
		if e := relErr(r.LosslessTa, r.ActualTa); e > 0.5 {
			t.Errorf("%s: lossless Ta prediction %v vs actual %v (err %.0f%%)",
				r.Query, r.LosslessTa, r.ActualTa, e*100)
		}
		// Lossy predictions exist and are in the right ballpark, though
		// worse on average (checked below).
		if r.LossyTa <= 0 || r.LossyTf <= 0 {
			t.Errorf("%s: lossy prediction missing: %+v", r.Query, r)
		}
	}
	// Aggregate: lossless Ta error ≤ lossy Ta error (the paper: "lossy
	// tables do worse, mainly from cardinality discrepancies").
	var losslessErr, lossyErr float64
	for _, r := range rows {
		losslessErr += relErr(r.LosslessTa, r.ActualTa)
		lossyErr += relErr(r.LossyTa, r.ActualTa)
	}
	if losslessErr > lossyErr {
		t.Errorf("lossless aggregate Ta error %.2f exceeds lossy %.2f", losslessErr, lossyErr)
	}
}

func TestFigure6FirstAnswerUnderprediction(t *testing.T) {
	// The paper: Tf predictions are "often good, yet in some cases vastly
	// under-predict" because backtracking before the first answer is not
	// modelled. query2'/query4 interleave a selective cast join before
	// producing an answer, so at least one query must underpredict Tf.
	rows, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	under := 0
	for _, r := range rows {
		if r.LosslessTf < r.ActualTf*8/10 {
			under++
		}
	}
	if under == 0 {
		t.Error("no query underpredicts Tf; the backtracking effect is missing")
	}
}

func TestFormatters(t *testing.T) {
	rows5, err := Figure5()
	if err != nil {
		t.Fatal(err)
	}
	s5 := FormatFigure5(rows5)
	if len(s5) == 0 || s5[0] != 'Q' {
		t.Errorf("figure 5 formatting: %q...", s5[:40])
	}
	rows6, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	s6 := FormatFigure6(rows6)
	if len(s6) == 0 {
		t.Error("figure 6 formatting empty")
	}
}
