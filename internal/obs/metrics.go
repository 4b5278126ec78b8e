package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// HistogramWindow is how many of the most recent observations a Histogram
// retains for quantile estimation. Count and Sum cover every observation;
// quantiles are computed over this sliding window.
const HistogramWindow = 1024

// attached is the list of layer-owned tallies a registry-owned series
// reads; attaches happen at wiring.
type attached[T int64 | float64] struct {
	mu    sync.Mutex
	reads []func() T
}

func (a *attached[T]) add(read func() T) {
	a.mu.Lock()
	a.reads = append(a.reads, read)
	a.mu.Unlock()
}

func (a *attached[T]) sum() (n T) {
	a.mu.Lock()
	reads := a.reads
	a.mu.Unlock()
	for _, read := range reads {
		n += read()
	}
	return n
}

// Counter is a monotonically increasing tally. The zero value is ready to
// use: the layer that observes an event keeps a Counter as a struct field,
// bumps it at the event site, and attaches it to a Registry at wiring. A
// Counter obtained from a Registry is the series itself: its Value adds
// every attached tally to what was bumped through it by name. All methods
// are nil-receiver safe.
type Counter struct {
	v    atomic.Int64
	more attached[int64]
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n (negative n is ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load() + c.more.sum()
}

// Gauge is a registry-owned series that reads state at scrape time: its
// value is the sum of the read functions attached to it (AttachGauge), so
// a layer keeps no gauge of its own, only the state the function reads.
// All methods are nil-receiver safe.
type Gauge struct {
	more attached[float64]
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.more.sum()
}

// Histogram accumulates observations and answers quantile queries over a
// bounded window of the most recent HistogramWindow samples. Count and Sum
// are exact over all observations. Like Counter, the zero value is a
// layer-owned handle, and a registry-owned Histogram merges what is
// attached to it: counts and sums add, quantiles range over every attached
// window. All methods are nil-receiver safe.
//
// A handle's own window is kept sorted once it has been read: the first
// Quantile sorts it, and from then on each Observe binary-searches its
// sample in, and the sample the ring overwrites out, of the sorted copy.
// The copy goes stale, and the next Quantile sorts again, whenever the
// window holds a NaN or a zero: sort.Float64s leaves NaNs, and +0 beside
// -0, in an order that depends on the input order, which insertion cannot
// reproduce bit for bit. A handle nobody reads never builds the copy.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	samples []float64
	next    int          // overwrite cursor once the window is full
	more    []*Histogram // attached to a registry-owned series
	// sorted is samples in ascending order while len(sorted) ==
	// len(samples) > 0; a stale copy is emptied.
	sorted []float64
	// unordered counts the samples in the window that are NaN or zero.
	unordered int
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	keep := len(h.sorted) > 0 && len(h.sorted) == len(h.samples) && h.unordered == 0 && !unorderedSample(v)
	if unorderedSample(v) {
		h.unordered++
	}
	if len(h.samples) < HistogramWindow {
		h.samples = append(h.samples, v)
		if keep {
			h.sorted = insertSorted(h.sorted, v)
		}
	} else {
		old := h.samples[h.next]
		h.samples[h.next] = v
		h.next = (h.next + 1) % HistogramWindow
		if unorderedSample(old) {
			h.unordered--
		}
		if keep {
			replaceSorted(h.sorted, old, v)
		}
	}
	if !keep {
		h.sorted = h.sorted[:0]
	}
}

// unorderedSample reports whether sort.Float64s may place v among its
// equals in an order insertion cannot reproduce.
func unorderedSample(v float64) bool { return v != v || v == 0 }

// insertSorted inserts v into the ascending s.
func insertSorted(s []float64, v float64) []float64 {
	i := sort.SearchFloat64s(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// replaceSorted replaces one old in the ascending s by v, shifting only
// the elements between their two places.
func replaceSorted(s []float64, old, v float64) {
	i, j := sort.SearchFloat64s(s, old), sort.SearchFloat64s(s, v)
	if j > i {
		copy(s[i:j-1], s[i+1:j])
		s[j-1] = v
		return
	}
	copy(s[j+1:i+1], s[j:i])
	s[j] = v
}

// Count returns how many samples were observed in total.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	n, more := h.count, h.more
	h.mu.Unlock()
	for _, a := range more {
		n += a.Count()
	}
	return n
}

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	sum, more := h.sum, h.more
	h.mu.Unlock()
	for _, a := range more {
		sum += a.Sum()
	}
	return sum
}

// window appends the retained samples, own and attached, to dst.
func (h *Histogram) window(dst []float64) []float64 {
	h.mu.Lock()
	dst = append(dst, h.samples...)
	more := h.more
	h.mu.Unlock()
	for _, a := range more {
		dst = a.window(dst)
	}
	return dst
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) over the retained window,
// using the nearest-rank method; it returns 0 when nothing was observed.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	if h.more == nil {
		defer h.mu.Unlock()
		return h.ownQuantileLocked(q)
	}
	h.mu.Unlock()
	// A series that merges attached handles cannot see their Observes:
	// it sorts at read.
	return h.windowQuantile(q)
}

// windowQuantile is Quantile read off a sorted copy of the window, own and
// attached, that it does not keep.
func (h *Histogram) windowQuantile(q float64) float64 {
	sorted := h.window(nil)
	sort.Float64s(sorted)
	return nearestRank(sorted, q)
}

// quantileCount is Quantile and Count under one lock, for a handle
// nothing is attached to.
func (h *Histogram) quantileCount(q float64) (float64, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ownQuantileLocked(q), h.count
}

// ownQuantileLocked reads the q-quantile off the handle's own window,
// sorting it first if the sorted copy is stale. The caller holds h.mu.
func (h *Histogram) ownQuantileLocked(q float64) float64 {
	if len(h.sorted) != len(h.samples) {
		h.sorted = append(h.sorted[:0], h.samples...)
		sort.Float64s(h.sorted)
	}
	return nearestRank(h.sorted, q)
}

// nearestRank reads the q-quantile off an ascending slice; 0 when empty.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// metricKind discriminates the stored metric types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		// Histograms expose quantiles, so they render as Prometheus
		// summaries.
		return "summary"
	}
}

// family groups every labeled instance of one metric name.
type family struct {
	name    string
	kind    metricKind
	help    string
	byLabel map[string]any // rendered label string -> *Counter | *Gauge | *Histogram
}

// Registry holds named metric series and reads the tallies the layers
// attached to them. It is safe for concurrent use; lookups return the same
// instance for the same (name, labels).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// labelString renders label pairs canonically ({} sorted by key), e.g.
// `{domain="avis",route="cim"}`; empty for no labels. labels are k1, v1,
// k2, v2, ...; an odd count panics (programmer error).
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list %q", labels))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", p.k, p.v)
	}
	b.WriteByte('}')
	return b.String()
}

// metric returns (creating on first use) the registry-owned instance for
// (name, labels), checking that the name is not reused with a different
// kind; a non-empty help becomes the family's # HELP text.
func (r *Registry) metric(name, help string, kind metricKind, labels []string) any {
	if r == nil {
		return nil
	}
	ls := labelString(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, kind: kind, byLabel: make(map[string]any)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	if help != "" {
		f.help = help
	}
	m, ok := f.byLabel[ls]
	if !ok {
		switch kind {
		case kindCounter:
			m = &Counter{}
		case kindGauge:
			m = &Gauge{}
		default:
			m = &Histogram{}
		}
		f.byLabel[ls] = m
	}
	return m
}

// Counter returns the counter series (name, labels), creating it at zero
// on first use: the read API. Labels are alternating key, value strings. Nil-receiver safe: a nil registry returns a nil (no-op)
// counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	m, _ := r.metric(name, "", kindCounter, labels).(*Counter)
	return m
}

// Gauge returns the gauge series (name, labels).
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	m, _ := r.metric(name, "", kindGauge, labels).(*Gauge)
	return m
}

// Histogram returns the histogram series (name, labels).
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	m, _ := r.metric(name, "", kindHistogram, labels).(*Histogram)
	return m
}

// AttachCounter declares the counter family name — this call is the one
// place its help text lives — and adds read, typically a layer-owned
// Counter's Value method, to the series (name, labels), which lists at
// zero from then on. Tallies attached to one series sum. The owning layer
// calls it once per series from its SetObserver. Nil-receiver safe.
func (r *Registry) AttachCounter(name, help string, read func() int64, labels ...string) {
	if c, _ := r.metric(name, help, kindCounter, labels).(*Counter); c != nil {
		c.more.add(read)
	}
}

// AttachGauge is AttachCounter for a gauge family; read derives the
// reading from the layer's state at scrape time.
func (r *Registry) AttachGauge(name, help string, read func() float64, labels ...string) {
	if g, _ := r.metric(name, help, kindGauge, labels).(*Gauge); g != nil {
		g.more.add(read)
	}
}

// AttachHistogram is AttachCounter for a histogram family; a nil h only
// lists the series.
func (r *Registry) AttachHistogram(name, help string, h *Histogram, labels ...string) {
	if head, _ := r.metric(name, help, kindHistogram, labels).(*Histogram); head != nil && h != nil {
		head.mu.Lock()
		head.more = append(head.more, h)
		head.mu.Unlock()
	}
}

// summaryQuantiles are the quantiles every histogram exports.
var summaryQuantiles = []struct {
	label string
	q     float64
}{
	{"0.5", 0.5},
	{"0.95", 0.95},
	{"0.99", 0.99},
}

// series is one labeled instance of a family, copied out of the registry.
type series struct {
	family *family
	help   string // the family's help, read under the registry lock
	labels string
	m      any // *Counter | *Gauge | *Histogram
}

// gather copies out every series, sorted by family name then label string.
// Only instance pointers and help texts are taken under the lock (a
// series attached while others are scraped may set its family's help);
// callers read the values through the instances' own synchronization.
func (r *Registry) gather() []series {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []series
	for _, f := range r.families {
		for ls, m := range f.byLabel {
			out = append(out, series{f, f.help, ls, m})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].family != out[j].family {
			return out[i].family.name < out[j].family.name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// WritePrometheus renders every metric in Prometheus text exposition
// format, families and label sets in sorted order so output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder
	var last *family
	for _, in := range r.gather() {
		n, f := in.family.name, in.family
		if f != last {
			last = f
			if in.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", n, in.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", n, f.kind)
		}
		switch m := in.m.(type) {
		case *Counter:
			fmt.Fprintf(&b, "%s%s %d\n", n, in.labels, m.Value())
		case *Gauge:
			fmt.Fprintf(&b, "%s%s %s\n", n, in.labels, formatFloat(m.Value()))
		case *Histogram:
			for _, sq := range summaryQuantiles {
				fmt.Fprintf(&b, "%s%s %s\n", n, mergeLabel(in.labels, "quantile", sq.label), formatFloat(m.Quantile(sq.q)))
			}
			fmt.Fprintf(&b, "%s_sum%s %s\n", n, in.labels, formatFloat(m.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", n, in.labels, m.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Snapshot returns every metric's current reading keyed by name plus
// rendered labels: counters and gauges by value, histograms as name_count
// and name_sum entries. The /debug/cluster rollup ships these maps between
// nodes instead of re-parsing Prometheus text. Nil-receiver safe.
func (r *Registry) Snapshot() map[string]float64 {
	if r == nil {
		return nil
	}
	out := make(map[string]float64)
	for _, in := range r.gather() {
		n := in.family.name
		switch m := in.m.(type) {
		case *Counter:
			out[n+in.labels] = float64(m.Value())
		case *Gauge:
			out[n+in.labels] = m.Value()
		case *Histogram:
			out[n+"_count"+in.labels] = float64(m.Count())
			out[n+"_sum"+in.labels] = m.Sum()
		}
	}
	return out
}

// mergeLabel splices an extra label pair into an already-rendered label
// string.
func mergeLabel(ls, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if ls == "" {
		return "{" + extra + "}"
	}
	return ls[:len(ls)-1] + "," + extra + "}"
}

func formatFloat(v float64) string {
	return fmt.Sprintf("%g", v)
}
