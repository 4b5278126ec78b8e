package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestQErr(t *testing.T) {
	cases := []struct {
		est, actual, want float64
	}{
		{10, 10, 1},
		{10, 20, 2},
		{20, 10, 2},
		{0, 100, 100},  // est floored at 1
		{100, 0, 100},  // actual floored at 1
		{0, 0, 1},      // both floored: sub-ms noise is "calibrated"
		{0.5, 0.25, 1}, // sub-floor values saturate
	}
	for _, c := range cases {
		if got := QErr(c.est, c.actual); got != c.want {
			t.Errorf("QErr(%g, %g) = %g, want %g", c.est, c.actual, got, c.want)
		}
	}
}

func TestCalibrationObserveAndSummary(t *testing.T) {
	c := NewCalibration()
	// avis:frames is 4x off on Ta; ingres:roads is spot on.
	for i := 0; i < 4; i++ {
		c.Observe("avis", "frames",
			Cost{TFirst: 10 * time.Millisecond, TAll: 100 * time.Millisecond, Card: 10},
			Cost{TFirst: 10 * time.Millisecond, TAll: 400 * time.Millisecond, Card: 20})
		c.Observe("ingres", "roads",
			Cost{TFirst: 5 * time.Millisecond, TAll: 50 * time.Millisecond, Card: 7},
			Cost{TFirst: 5 * time.Millisecond, TAll: 50 * time.Millisecond, Card: 7})
	}
	rows := c.Summary()
	if len(rows) != 2 {
		t.Fatalf("summary rows = %d, want 2", len(rows))
	}
	if rows[0].Domain != "avis" || rows[0].Function != "frames" {
		t.Errorf("worst-calibrated first: got %s:%s", rows[0].Domain, rows[0].Function)
	}
	if rows[0].MedianQTa != 4 || rows[0].MedianQCrd != 2 || rows[0].MedianQTf != 1 {
		t.Errorf("avis row = %+v", rows[0])
	}
	if rows[1].MedianQTa != 1 || rows[1].Samples != 4 {
		t.Errorf("ingres row = %+v", rows[1])
	}

	if q, n := c.Grade("avis", "frames"); q != 4 || n != 4 {
		t.Errorf("Grade(avis, frames) = %g, %d", q, n)
	}
	if _, n := c.Grade("faces", "unknown"); n != 0 {
		t.Errorf("Grade of untracked function reported %d samples", n)
	}
}

func TestCalibrationPlanGrade(t *testing.T) {
	c := NewCalibration()
	good := Cost{TAll: 100 * time.Millisecond, Card: 10}
	for i := 0; i < CalMinSamples; i++ {
		c.Observe("a", "good", good, good)
		c.Observe("a", "bad", good, Cost{TAll: time.Second, Card: 10})
	}
	c.Observe("a", "thin", good, good) // below CalMinSamples

	if g, _ := c.PlanGrade([][2]string{{"a", "nosuch"}}); g != "cold" {
		t.Errorf("never-observed plan = %q, want cold", g)
	}
	// A function with *some* samples (just fewer than CalMinSamples) is
	// thin, not cold: its observations are real evidence and cold-start
	// inflation must not apply to it.
	if g, q := c.PlanGrade([][2]string{{"a", "nosuch"}, {"a", "thin"}}); g != "thin" || q != 1 {
		t.Errorf("thinly-sampled plan = %q, %g, want thin, 1", g, q)
	}
	if g, q := c.PlanGrade([][2]string{{"a", "good"}}); g != "trusted" || q != 1 {
		t.Errorf("good plan = %q, %g", g, q)
	}
	if g, q := c.PlanGrade([][2]string{{"a", "good"}, {"a", "bad"}}); g != "rough" || q != 10 {
		t.Errorf("mixed plan = %q, %g, want rough on worst function", g, q)
	}
	// A graded function outranks thin ones: the thin sample neither
	// promotes nor blocks the trusted grade.
	if g, _ := c.PlanGrade([][2]string{{"a", "good"}, {"a", "thin"}}); g != "trusted" {
		t.Errorf("graded+thin plan = %q, want trusted", g)
	}
}

func TestCalibrationQErrQuantile(t *testing.T) {
	c := NewCalibration()
	// Eight accurate observations and two 16x blowouts: the median stays
	// 1 while p90 surfaces the tail — the divergence the pessimistic
	// inflation quantile exists to capture.
	good := Cost{TAll: 100 * time.Millisecond, Card: 10}
	for i := 0; i < 8; i++ {
		c.Observe("a", "spiky", good, good)
	}
	c.Observe("a", "spiky", good, Cost{TAll: 1600 * time.Millisecond, Card: 10})
	c.Observe("a", "spiky", good, Cost{TAll: 1600 * time.Millisecond, Card: 10})
	med, n := c.QErrQuantile("a", "spiky", 0.5)
	p90, _ := c.QErrQuantile("a", "spiky", 0.9)
	if n != 10 || med != 1 {
		t.Errorf("median = %g n=%d, want 1, 10", med, n)
	}
	if p90 <= med {
		t.Errorf("p90 = %g should exceed median %g", p90, med)
	}
	if _, n := c.QErrQuantile("a", "nosuch", 0.9); n != 0 {
		t.Errorf("untracked function reported %d samples", n)
	}
	var nilCal *Calibration
	if q, n := nilCal.QErrQuantile("a", "b", 0.9); q != 0 || n != 0 {
		t.Error("nil calibration QErrQuantile not a no-op")
	}
}

// TestCalibrationKeysDoNotCollide: a colon inside a domain or function
// name does not merge two functions' windows.
func TestCalibrationKeysDoNotCollide(t *testing.T) {
	c := NewCalibration()
	good := Cost{TAll: 100 * time.Millisecond, Card: 10}
	c.Observe("a:b", "c", good, good)
	c.Observe("a", "b:c", good, Cost{TAll: time.Second, Card: 10})
	if q, n := c.Grade("a:b", "c"); q != 1 || n != 1 {
		t.Errorf("Grade(a:b, c) = %g, %d, want 1, 1", q, n)
	}
	if q, n := c.Grade("a", "b:c"); q != 10 || n != 1 {
		t.Errorf("Grade(a, b:c) = %g, %d, want 10, 1", q, n)
	}
	if rows := c.Summary(); len(rows) != 2 || rows[0].Domain != "a" || rows[0].Function != "b:c" || rows[1].Domain != "a:b" {
		t.Errorf("summary = %+v, want two rows, a / b:c first", rows)
	}
}

// TestCalibrationSummaryKeepsNoSortedCopy: reading the summary sorts the
// Tf and card windows at read and leaves them nothing to maintain on
// later Observes; only the planner's Ta window stays sorted.
func TestCalibrationSummaryKeepsNoSortedCopy(t *testing.T) {
	c := NewCalibration()
	for i := 1; i <= 5; i++ {
		c.Observe("d", "f", Cost{TFirst: time.Millisecond, TAll: time.Millisecond, Card: 1},
			Cost{TFirst: time.Duration(i) * time.Millisecond, TAll: time.Duration(i) * time.Millisecond, Card: float64(i)})
	}
	rows := c.Summary()
	if len(rows) != 1 || rows[0].MedianQTf != 3 || rows[0].MedianQCrd != 3 {
		t.Fatalf("summary = %+v, want one row with medians 3", rows)
	}
	c.Observe("d", "f", Cost{TAll: time.Millisecond, Card: 1}, Cost{TAll: time.Millisecond, Card: 1})
	e := c.entries[calKey{"d", "f"}]
	if len(e.qtf.sorted) != 0 || len(e.qcard.sorted) != 0 {
		t.Errorf("qtf/qcard keep sorted copies of %d/%d samples after Summary", len(e.qtf.sorted), len(e.qcard.sorted))
	}
	if len(e.qta.sorted) != 6 {
		t.Errorf("qta sorted copy holds %d samples, want 6", len(e.qta.sorted))
	}
}

// calibrationWithRegistry returns an empty calibration table whose
// windows a fresh registry merges into per-domain q-error series.
func calibrationWithRegistry() (*Calibration, *Registry) {
	c, reg := NewCalibration(), NewRegistry()
	c.SetRegistry(reg)
	return c, reg
}

// TestCalibrationSetRegistry: the registry's q-error series merge the
// windows of functions tracked before SetRegistry named it and after.
func TestCalibrationSetRegistry(t *testing.T) {
	c := NewCalibration()
	c.Observe("avis", "frames",
		Cost{TAll: 100 * time.Millisecond, Card: 10},
		Cost{TAll: 300 * time.Millisecond, Card: 10})
	reg := NewRegistry()
	c.SetRegistry(reg)
	c.Observe("ingres", "roads", Cost{TAll: time.Second, Card: 1}, Cost{TAll: time.Second, Card: 1})
	if q, n := c.Grade("avis", "frames"); n != 1 || q != 3 {
		t.Errorf("tracker fed q=%g n=%d, want 3, 1", q, n)
	}
	h := reg.Histogram("hermes_dcsm_qerror_ta", "domain", "avis")
	if h.Count() != 1 || h.Quantile(0.5) != 3 {
		t.Errorf("registry histogram count=%d median=%g", h.Count(), h.Quantile(0.5))
	}
	for _, dom := range []string{"avis", "ingres"} {
		for _, name := range []string{"hermes_dcsm_qerror_tf", "hermes_dcsm_qerror_ta", "hermes_dcsm_qerror_card"} {
			if reg.Histogram(name, "domain", dom).Count() != 1 {
				t.Errorf("%s{domain=%q} not fed", name, dom)
			}
		}
	}
}

// TestCalibrationNilSafety: the new hooks must all be nil-receiver
// no-ops so an obs-disabled system costs only the nil checks.
func TestCalibrationNilSafety(t *testing.T) {
	var c *Calibration
	c.Observe("d", "f", Cost{}, Cost{})
	if rows := c.Summary(); rows != nil {
		t.Errorf("nil calibration summary = %v", rows)
	}
	if _, n := c.Grade("d", "f"); n != 0 {
		t.Error("nil calibration graded")
	}
	c.ListDomain("d")
}

// TestDomainQErrSeriesMergeFunctionWindows: each measured call is observed
// once, into its function's windows, and a domain's q-error series are the
// registry's merge of those windows — count and sum the sums of the
// domain's function counts and sums, quantiles over their union.
func TestDomainQErrSeriesMergeFunctionWindows(t *testing.T) {
	cal, reg := calibrationWithRegistry()
	cal.ListDomain("idle")
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	for i := 1; i <= 30; i++ {
		cal.Observe("avis", "frames", Cost{TFirst: ms(2), TAll: ms(10), Card: 4}, Cost{TFirst: ms(i), TAll: ms(10 * i), Card: float64(i)})
		cal.Observe("avis", "objects", Cost{TAll: ms(50), Card: 2}, Cost{TAll: ms(5 * i), Card: 2})
		cal.Observe("ingres", "roads", Cost{TAll: ms(7), Card: 1}, Cost{TAll: ms(7), Card: 1})
	}
	for _, dom := range []string{"avis", "ingres", "idle"} {
		for _, c := range []struct {
			name string
			win  func(*calEntry) *Histogram
		}{
			{"hermes_dcsm_qerror_tf", func(e *calEntry) *Histogram { return &e.qtf }},
			{"hermes_dcsm_qerror_ta", func(e *calEntry) *Histogram { return &e.qta }},
			{"hermes_dcsm_qerror_card", func(e *calEntry) *Histogram { return &e.qcard }},
		} {
			var n int64
			var sum float64
			var union []float64
			for k, e := range cal.entries {
				if k.domain == dom {
					n += c.win(e).Count()
					sum += c.win(e).Sum()
					union = c.win(e).window(union)
				}
			}
			snap := reg.Snapshot()
			label := `{domain="` + dom + `"}`
			if got, ok := snap[c.name+"_count"+label]; !ok || got != float64(n) {
				t.Errorf("%s_count%s = %g (listed %v), function windows hold %d", c.name, label, got, ok, n)
			}
			if got := snap[c.name+"_sum"+label]; got != sum {
				t.Errorf("%s_sum%s = %g, function windows sum to %g", c.name, label, got, sum)
			}
			sort.Float64s(union)
			if got, want := reg.Histogram(c.name, "domain", dom).Quantile(0.95), nearestRank(union, 0.95); got != want {
				t.Errorf("%s%s p95 = %g, over the union of function windows %g", c.name, label, got, want)
			}
		}
	}
	if n := reg.Histogram("hermes_dcsm_qerror_ta", "domain", "avis").Count(); n != 60 {
		t.Errorf("avis observed %d Ta q-errors for 60 measured calls", n)
	}
}

// TestCalibrationObserveWhileScraped: the registry reads the calibration
// windows it merges while calls are observed into them and new functions
// attach theirs; run with -race.
func TestCalibrationObserveWhileScraped(t *testing.T) {
	cal, reg := calibrationWithRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				cal.Observe("d", fmt.Sprintf("f%d", i%(g+2)), Cost{TAll: time.Millisecond}, Cost{TAll: time.Duration(i+1) * time.Millisecond})
			}
		}(g)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				reg.WritePrometheus(io.Discard)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped
	if n := reg.Histogram("hermes_dcsm_qerror_ta", "domain", "d").Count(); n != 4*300 {
		t.Errorf("merged count = %d, want %d", n, 4*300)
	}
}
