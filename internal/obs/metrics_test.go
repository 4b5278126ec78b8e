package obs

import (
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("calls_total", "route", "cim")
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored: counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if same := r.Counter("calls_total", "route", "cim"); same != c {
		t.Error("same (name, labels) did not return the same counter")
	}
	if other := r.Counter("calls_total", "route", "direct"); other == c {
		t.Error("different labels returned the same counter")
	}

	// A gauge reads state: the series sums every function attached to it.
	r.AttachGauge("breaker_state", "", func() float64 { return 2 }, "domain", "avis")
	r.AttachGauge("breaker_state", "", func() float64 { return -1.5 }, "domain", "avis")
	if got := r.Gauge("breaker_state", "domain", "avis").Value(); got != 0.5 {
		t.Errorf("gauge = %g, want 0.5", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "b", "2", "a", "1")
	b := r.Counter("x_total", "a", "1", "b", "2")
	if a != b {
		t.Error("label order changed metric identity")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.AttachGauge("y", "", func() float64 { return 1 })
	r.Gauge("y").Value()
	r.Histogram("z").Observe(1)
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var o *Observer
	o.Counter("x").Inc()
	o.StartQuery("q", 0).SetTag("a", "b")
	var f *FlightRecorder
	o.StartQuery("q", 0).End(0)
	if started, finished, _ := f.Counts(); started != 0 || finished != 0 {
		t.Errorf("nil recorder counts = %d, %d", started, finished)
	}
	(&Observer{}).StartQuery("q", 0).End(0) // an observer without a recorder traces nothing
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	if got := h.Quantile(0.5); got != 0 {
		t.Errorf("empty histogram p50 = %g", got)
	}
	// 1..100: nearest-rank p50 = 50, p95 = 95, p99 = 99.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	for _, tc := range []struct {
		q, want float64
	}{
		{0, 1}, {0.5, 50}, {0.95, 95}, {0.99, 99}, {1, 100},
	} {
		if got := h.Quantile(tc.q); got != tc.want {
			t.Errorf("p%g = %g, want %g", tc.q*100, got, tc.want)
		}
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if h.Sum() != 5050 {
		t.Errorf("sum = %g", h.Sum())
	}
}

func TestHistogramWindowBounded(t *testing.T) {
	h := &Histogram{}
	// Fill the window with large values, then overwrite it completely with
	// small ones: quantiles must reflect only the retained window while
	// Count/Sum stay exact.
	for i := 0; i < HistogramWindow; i++ {
		h.Observe(1e6)
	}
	for i := 0; i < HistogramWindow; i++ {
		h.Observe(1)
	}
	if got := h.Quantile(0.99); got != 1 {
		t.Errorf("p99 after overwrite = %g, want 1", got)
	}
	if got := h.Count(); got != 2*HistogramWindow {
		t.Errorf("count = %d, want %d", got, 2*HistogramWindow)
	}
	if got := h.Sum(); got != float64(HistogramWindow)*1e6+float64(HistogramWindow) {
		t.Errorf("sum = %g", got)
	}
}

// TestHistogramSortedWindowCache: the sorted copy Observe keeps up to date
// never answers differently from a fresh sort. Interleaved Observes and Quantiles —
// through the fill, the wrap-around and ±Inf samples — answer what a fresh
// sort of the last HistogramWindow observations answers, bit for bit; then
// 8 observers and 2 readers share one histogram (run with -race).
func TestHistogramSortedWindowCache(t *testing.T) {
	h := &Histogram{}
	rng := rand.New(rand.NewSource(20))
	var all []float64
	fresh := func(q float64) float64 {
		win := all
		if len(win) > HistogramWindow {
			win = win[len(win)-HistogramWindow:]
		}
		sorted := append([]float64(nil), win...)
		sort.Float64s(sorted)
		return nearestRank(sorted, q)
	}
	for i := 0; i < 3*HistogramWindow; i++ {
		v := rng.NormFloat64() * 100
		switch rng.Intn(200) {
		case 0:
			v = math.Inf(1)
		case 1:
			v = math.Inf(-1)
		}
		h.Observe(v)
		all = append(all, v)
		for n := rng.Intn(3); n > 0; n-- { // 0, 1 or 2 reads per write
			q := []float64{0, 0.5, 0.9, 0.99, 1, rng.Float64()}[rng.Intn(6)]
			if got, want := h.Quantile(q), fresh(q); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("after %d observations q=%g: cached %v, fresh sort %v", i+1, q, got, want)
			}
		}
	}

	shared := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				shared.Observe(float64(g*400 + i))
			}
		}(g)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				shared.Quantile(0.9)
			}
		}()
	}
	wg.Wait()
	if n, lo, hi := shared.Count(), shared.Quantile(0), shared.Quantile(1); n != 3200 || lo > hi || hi > 3199 {
		t.Errorf("after 3200 observations: count %d, min %g, max %g", n, lo, hi)
	}
}

// TestHistogramSortedWindowMatchesSort: over seeded interleavings of
// Observe and Quantile — bursts with no read between them, reads after
// every write, the fill and four wrap-arounds, and samples drawn from a
// pool heavy in NaN payloads, ±0, ±Inf and repeats — every Quantile is
// what sorting the window as stored answers, bit for bit.
func TestHistogramSortedWindowMatchesSort(t *testing.T) {
	special := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000042), math.Float64frombits(0xfff0000000000001),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, 1, -1, 2.5,
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		h := &Histogram{}
		var ring []float64 // the window in storage order
		next := 0
		rate := []int{0, 2, 50, 200}[seed%4] // specials per thousand
		for i := 0; i < 4*HistogramWindow+300; i++ {
			v := math.Round(rng.NormFloat64()*1000) / 8
			if rng.Intn(1000) < rate {
				v = special[rng.Intn(len(special))]
			}
			h.Observe(v)
			if len(ring) < HistogramWindow {
				ring = append(ring, v)
			} else {
				ring[next] = v
				next = (next + 1) % HistogramWindow
			}
			reads := 0
			switch r := rng.Intn(10); {
			case i/700%2 == 1:
				// a stretch with no reads: the sorted copy goes stale or is
				// kept up to date by whatever was read before it
			case r < 6:
				reads = 1
			case r < 8:
				reads = 3
			}
			for ; reads > 0; reads-- {
				q := []float64{0, 0.5, 0.9, 0.99, 1, rng.Float64()}[rng.Intn(6)]
				want := append([]float64(nil), ring...)
				sort.Float64s(want)
				if got, w := h.Quantile(q), nearestRank(want, q); math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("seed %d, after %d observations, q=%g: %v (%#x), sort at read %v (%#x)",
						seed, i+1, q, got, math.Float64bits(got), w, math.Float64bits(w))
				}
			}
		}
	}
}

// TestHistogramObserveAllocsPer: once the window is full and read, an
// Observe and a Quantile allocate nothing.
func TestHistogramObserveAllocsPer(t *testing.T) {
	h := &Histogram{}
	for i := 0; i < HistogramWindow; i++ {
		h.Observe(float64(i%97 + 1)) // no zero: the window stays sorted by insertion
	}
	h.Quantile(0.5)
	v := 0.0
	if n := testing.AllocsPerRun(1000, func() {
		v++
		h.Observe(float64(int(v)%89 + 1))
		h.Quantile(0.9)
	}); n != 0 {
		t.Errorf("Observe and Quantile in steady state allocate %v times, want 0", n)
	}
}

// TestConcurrentUpdates exercises every metric type from many goroutines;
// run with -race.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 500
	var now atomic.Int64
	r.AttachGauge("g_now", "", func() float64 { return float64(now.Load()) })
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("c_total", "g", "shared").Inc()
				now.Add(1)
				r.Gauge("g_now").Value()
				r.Histogram("h_ms").Observe(float64(i))
				if i%100 == 0 {
					var sb strings.Builder
					r.WritePrometheus(&sb)
					r.Histogram("h_ms").Quantile(0.95)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total", "g", "shared").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("g_now").Value(); math.Abs(got-goroutines*perG) > 1e-9 {
		t.Errorf("gauge = %g, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("h_ms").Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestAttachedHandles: layer-owned handles attached to registry series are
// read, not mirrored — eight goroutines bump two layers' handles (both
// attached to the same series, so they sum) while a ninth scrapes; run
// with -race. The by-name lookup returns the live, summed series.
func TestAttachedHandles(t *testing.T) {
	type layer struct {
		events Counter
		level  atomic.Int64
		waitMS Histogram
	}
	r := NewRegistry()
	var a, b layer
	for _, l := range []*layer{&a, &b} {
		r.AttachCounter("events_total", "events seen", l.events.Value, "side", "client")
		r.AttachGauge("level", "current level", func() float64 { return float64(l.level.Load()) })
		r.AttachHistogram("wait_ms", "time waited", &l.waitMS)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	for _, want := range []string{"# HELP events_total events seen", `events_total{side="client"} 0`, "level 0", "wait_ms_count 0"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("scrape before traffic missing %q:\n%s", want, sb.String())
		}
	}

	const goroutines, perG = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			select {
			case <-stop:
				return
			default:
				r.WritePrometheus(io.Discard)
				r.Snapshot()
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(l *layer) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.events.Inc()
				l.level.Add(1)
				l.waitMS.Observe(float64(i))
			}
		}([]*layer{&a, &b}[g%2])
	}
	wg.Wait()
	close(stop)
	<-scraped

	if got := r.Counter("events_total", "side", "client").Value(); got != goroutines*perG {
		t.Errorf("summed counter = %d, want %d", got, goroutines*perG)
	}
	if got := a.events.Value(); got != goroutines*perG/2 {
		t.Errorf("one layer's own tally = %d, want %d", got, goroutines*perG/2)
	}
	if got := r.Gauge("level").Value(); math.Abs(got-goroutines*perG) > 1e-9 {
		t.Errorf("summed gauge = %g, want %d", got, goroutines*perG)
	}
	h := r.Histogram("wait_ms")
	if got := h.Count(); got != goroutines*perG {
		t.Errorf("merged histogram count = %d, want %d", got, goroutines*perG)
	}
	if got := h.Quantile(1); got != perG-1 {
		t.Errorf("merged histogram max = %g, want %d", got, perG-1)
	}
	if got := r.Snapshot()[`events_total{side="client"}`]; got != goroutines*perG {
		t.Errorf("snapshot = %g, want %d", got, goroutines*perG)
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	var exact, partial Counter
	exact.Add(3)
	partial.Add(1)
	r.AttachCounter("cim_hits_total", "CIM cache hits by kind.", exact.Value, "kind", "exact")
	r.AttachCounter("cim_hits_total", "", partial.Value, "kind", "partial")
	r.AttachGauge("breaker_state", "", func() float64 { return 2 }, "domain", "avis")
	h := r.Histogram("query_ms")
	h.Observe(10)
	h.Observe(20)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP cim_hits_total CIM cache hits by kind.",
		"# TYPE cim_hits_total counter",
		`cim_hits_total{kind="exact"} 3`,
		`cim_hits_total{kind="partial"} 1`,
		"# TYPE breaker_state gauge",
		`breaker_state{domain="avis"} 2`,
		"# TYPE query_ms summary",
		`query_ms{quantile="0.5"} 10`,
		`query_ms{quantile="0.99"} 20`,
		"query_ms_sum 30",
		"query_ms_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Families render in sorted order: breaker_state < cim_hits_total <
	// query_ms.
	if bi, ci := strings.Index(out, "breaker_state"), strings.Index(out, "cim_hits_total"); bi > ci {
		t.Error("families not sorted")
	}
}
