package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// The reference below is the algorithm Snapshot, Explain and the span JSON
// used before an ended tree froze: every snapshot a deep copy, tags a map
// per span, sorted again at every render. It shares no code with the
// package; the model test drives both with the same writes.

type refSpan struct {
	name       string
	start, end time.Duration
	ended      bool
	tags       map[string]string
	est        *Cost
	actual     *Cost
	children   []*refSpan
	foreign    []refData
	real       *Span
}

type refData struct {
	Name     string            `json:"name"`
	Start    time.Duration     `json:"start"`
	End      time.Duration     `json:"end"`
	Tags     map[string]string `json:"tags,omitempty"`
	Est      *Cost             `json:"est,omitempty"`
	Actual   *Cost             `json:"actual,omitempty"`
	Children []refData         `json:"children,omitempty"`
}

func (r *refSpan) snapshot() refData {
	d := refData{Name: r.name, Start: r.start, End: r.end}
	if !r.ended {
		d.End = r.start
	}
	if r.est != nil {
		c := *r.est
		d.Est = &c
	}
	if r.actual != nil {
		c := *r.actual
		d.Actual = &c
	}
	if len(r.tags) > 0 {
		d.Tags = make(map[string]string, len(r.tags))
		for k, v := range r.tags {
			d.Tags[k] = v
		}
	}
	for _, c := range r.children {
		d.Children = append(d.Children, c.snapshot())
	}
	d.Children = append(d.Children, r.foreign...)
	return d
}

func refExplain(b *strings.Builder, d refData, firstPrefix, childPrefix string) {
	cost := func(c Cost) string {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		return fmt.Sprintf("[Tf=%.1fms Ta=%.1fms Card=%.2f]", ms(c.TFirst), ms(c.TAll), c.Card)
	}
	b.WriteString(firstPrefix + d.Name)
	keys := make([]string, 0, len(d.Tags))
	for k := range d.Tags {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b.WriteString("  " + k + "=" + d.Tags[k])
	}
	if d.Est != nil {
		b.WriteString("  est=" + cost(*d.Est))
	}
	if d.Actual != nil {
		b.WriteString("  actual=" + cost(*d.Actual))
	} else if d.Est == nil {
		fmt.Fprintf(b, "  (%.1fms)", float64(d.End-d.Start)/float64(time.Millisecond))
	}
	b.WriteByte('\n')
	for i, c := range d.Children {
		if i == len(d.Children)-1 {
			refExplain(b, c, childPrefix+"└─ ", childPrefix+"   ")
		} else {
			refExplain(b, c, childPrefix+"├─ ", childPrefix+"│  ")
		}
	}
}

// rendered is what a snapshot must read as: its EXPLAIN and its wire JSON.
type rendered struct{ explain, json string }

func renderRef(t *testing.T, d refData) rendered {
	t.Helper()
	var b strings.Builder
	refExplain(&b, d, "", "")
	j, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	return rendered{b.String(), string(j)}
}

func renderReal(t *testing.T, d SpanData) rendered {
	t.Helper()
	j, err := AppendSpanJSON(nil, d)
	if err != nil {
		t.Fatal(err)
	}
	return rendered{Explain(d), string(j)}
}

func refToSpanData(d refData) SpanData {
	out := SpanData{Name: d.Name, Start: d.Start, End: d.End, Tags: tagsOf(d.Tags), Est: d.Est, Actual: d.Actual}
	for _, c := range d.Children {
		out.Children = append(out.Children, refToSpanData(c))
	}
	return out
}

// TestSnapshotMatchesDeepCopyModel applies random writes — to open, ended
// and frozen spans alike — to a span tree and to the reference, and after
// every step requires the same EXPLAIN text and JSON bytes from both, and
// that no SpanData handed out earlier has changed since.
func TestSnapshotMatchesDeepCopyModel(t *testing.T) {
	keys := []string{"cim", "route", "answers", "node", "a<b>&c", "é\xff"}
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		now := time.Duration(0)
		tick := func() time.Duration {
			now += time.Duration(rng.Intn(5000)) * time.Microsecond
			return now
		}
		cost := func() Cost {
			return Cost{TFirst: tick(), TAll: tick(), Card: float64(rng.Intn(500)) / 4}
		}
		randTags := func() map[string]string {
			m := map[string]string{}
			for i := rng.Intn(3); i > 0; i-- {
				m[keys[rng.Intn(len(keys))]] = fmt.Sprint(rng.Intn(9))
			}
			return m
		}
		root := &refSpan{name: fmt.Sprintf("?- seed%d(X).", seed), start: tick()}
		root.real = NewSpan(root.name, root.start)
		all := []*refSpan{root}
		type handed struct {
			d    SpanData
			want rendered
		}
		var handedOut []handed
		check := func(step int, r *refSpan) {
			t.Helper()
			d := r.real.Snapshot()
			want := renderRef(t, r.snapshot())
			if got := renderReal(t, d); got != want {
				t.Fatalf("seed %d step %d: span %q reads\n%s%s\nthe deep-copy model reads\n%s%s",
					seed, step, r.name, got.explain, got.json, want.explain, want.json)
			}
			handedOut = append(handedOut, handed{d, want})
		}
		for step := 0; step < 250; step++ {
			r := all[rng.Intn(len(all))]
			switch op := rng.Intn(100); {
			case op < 18:
				c := &refSpan{name: fmt.Sprintf("call d:f(%d)", step), start: tick()}
				c.real = r.real.Child(c.name, c.start)
				r.children = append(r.children, c)
				all = append(all, c)
			case op < 45:
				k, v := keys[rng.Intn(len(keys))], fmt.Sprintf("v%d", rng.Intn(4))
				if r.tags == nil {
					r.tags = map[string]string{}
				}
				r.tags[k] = v
				r.real.SetTag(k, v)
			case op < 52:
				c := cost()
				r.est = &c
				r.real.SetEstimate(c)
			case op < 59:
				c := cost()
				r.actual = &c
				r.real.SetActual(c)
			case op < 63:
				at := tick()
				f := refData{Name: "serve d:f", Start: at, End: at + 7, Tags: randTags(),
					Children: []refData{{Name: "fetch", Start: at, End: at + 3, Tags: randTags()}}}
				r.foreign = append(r.foreign, f)
				d := refToSpanData(f)
				r.real.AttachForeign(&d)
			case op < 85:
				at := tick()
				if !r.ended {
					r.ended, r.end = true, at
				}
				r.real.End(at)
			case op < 90: // finish the query: everything ends, so the next snapshot freezes
				for _, s := range all {
					at := tick()
					if !s.ended {
						s.ended, s.end = true, at
					}
					s.real.End(at)
				}
			default:
				check(step, r)
			}
			check(step, root)
			if h := handedOut[rng.Intn(len(handedOut))]; renderReal(t, h.d) != h.want {
				t.Fatalf("seed %d step %d: a SpanData handed out earlier changed under a later write", seed, step)
			}
		}
		for i, h := range handedOut {
			if renderReal(t, h.d) != h.want {
				t.Fatalf("seed %d: SpanData %d handed out earlier changed under a later write", seed, i)
			}
		}
	}
}

// tenSpanTree builds and ends a 10-span tagged tree: a root, three calls,
// two spans under each.
func tenSpanTree() *Span {
	root := NewSpan("?- q(X).", 0)
	root.SetTag("answers", "9")
	root.SetTag("complete", "true")
	for i := 0; i < 3; i++ {
		call := root.Child(fmt.Sprintf("call d:f(%d)", i), time.Duration(i)*time.Millisecond)
		call.SetTag("route", "cim")
		call.SetTag("cim", "exact")
		call.SetEstimate(Cost{TFirst: time.Millisecond, TAll: 2 * time.Millisecond, Card: 3})
		for j := 0; j < 2; j++ {
			leaf := call.Child("fetch", time.Duration(i)*time.Millisecond)
			leaf.SetTag("n", "1")
			leaf.End(time.Duration(i+1) * time.Millisecond)
		}
		call.SetActual(Cost{TFirst: time.Millisecond, TAll: 3 * time.Millisecond, Card: 3})
		call.End(time.Duration(i+1) * time.Millisecond)
	}
	root.SetActual(Cost{TFirst: time.Millisecond, TAll: 4 * time.Millisecond, Card: 9})
	root.End(4 * time.Millisecond)
	return root
}

// sameChildren reports whether two snapshots are one tree: their Children
// share a backing array.
func sameChildren(a, b SpanData) bool {
	return len(a.Children) > 0 && len(b.Children) > 0 && &a.Children[0] == &b.Children[0]
}

// TestSpanTreeAllocsPerRun gates what a trace costs. Measured (go1.24,
// linux/amd64): building tenSpanTree allocates 9 times (the root with its
// first tags, three chunks of span records and two of tag records, the
// first of each carrying the chunk directory, and the test's three names),
// its first Snapshot 3 more (nodes, tags, costs) and every later one
// nothing. The first two tags of a root live in its own allocation; the
// next six take one chunk.
func TestSpanTreeAllocsPerRun(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { tenSpanTree() }); n > 9 && !raceEnabled {
		t.Errorf("building a 10-span tree allocates %v times, want <= 9", n)
	}
	if n := testing.AllocsPerRun(100, func() { tenSpanTree().Snapshot() }); n > 9+3 && !raceEnabled {
		t.Errorf("building and snapshotting a 10-span tree allocates %v times, want <= 12", n)
	}
	root := tenSpanTree()
	root.Snapshot()
	if n := testing.AllocsPerRun(100, func() { root.Snapshot() }); n != 0 {
		t.Errorf("a second Snapshot of an ended tree allocates %v times, want 0", n)
	}

	s := NewSpan("s", 0)
	s.SetTag("k", "v")
	if n := testing.AllocsPerRun(100, func() { s.SetTag("k", "w") }); n != 0 {
		t.Errorf("SetTag of an existing key allocates %v times, want 0", n)
	}
	fresh := make([]*Span, 101) // AllocsPerRun calls once more to warm up
	for i := range fresh {
		fresh[i] = NewSpan("s", 0)
	}
	i := 0
	if n := testing.AllocsPerRun(100, func() {
		s := fresh[i]
		i++
		s.SetTagInt("a", 1)
		s.SetTagMillis("b", 2*time.Millisecond)
	}); n != 0 {
		t.Errorf("two new tags on a root allocate %v times, want 0", n)
	}
	i = 0
	if n := testing.AllocsPerRun(100, func() {
		s := fresh[i]
		i++
		s.SetTag("c", "3")
		s.SetTagFixed("d", 4, 2)
		s.SetTag("e", "5")
	}); n != 1 {
		t.Errorf("three more tags allocate %v times, want 1 (a chunk)", n)
	}
}

// line is an Appender for tests.
type line string

func (l line) AppendTo(dst []byte) []byte { return append(dst, l...) }

// TestTypedValuesRenderAtFirstRead: numbers and appenders render as the
// strings callers used to format, when the tree is first read, and a
// write to the ended tree reaches the next snapshot only.
func TestTypedValuesRenderAtFirstRead(t *testing.T) {
	root := NewSpan("?- q.", 0)
	call := root.Child("", time.Millisecond)
	call.SetName(line("call d:f('x')"))
	call.SetTagInt("n", -42)
	call.SetTagMillis("saved_ms", 231249*time.Microsecond)
	call.SetTagFixed("q", 1.455, 2)
	call.SetTagFrom("plan", line("?- CIM[in(X, d:f('x'))]."))
	call.SetTag("route", "cim")
	call.SetTagFrom("nil", nil)
	call.End(2 * time.Millisecond)
	root.End(3 * time.Millisecond)
	d := root.Snapshot()
	want := "?- q.  (3.0ms)\n└─ call d:f('x')  n=-42  nil=  plan=?- CIM[in(X, d:f('x'))].  q=" +
		strconv.FormatFloat(1.455, 'f', 2, 64) + "  route=cim  saved_ms=231.2  (1.0ms)\n"
	if got := Explain(d); got != want {
		t.Errorf("EXPLAIN =\n%s\nwant\n%s", got, want)
	}
	call.SetTagInt("n", 7)
	if got := root.Snapshot().Children[0].Tag("n"); got != "7" {
		t.Errorf("a late write reads %q, want 7", got)
	}
	if got := d.Children[0].Tag("n"); got != "-42" {
		t.Errorf("a late write changed a snapshot handed out: n=%s", got)
	}
}

// TestWithSnapshotBuildsForTheCallAlone: WithSnapshot shows what Snapshot
// shows and leaves no build in the tree; its arrays are reused from call
// to call, so it allocates only the rendered text.
func TestWithSnapshotBuildsForTheCallAlone(t *testing.T) {
	root := tenSpanTree()
	root.SetTagInt("plans", 2)
	var got string
	root.WithSnapshot(func(d SpanData) { got = Explain(d) })
	if root.tr.built != nil {
		t.Error("WithSnapshot left its build in the tree")
	}
	if want := Explain(root.Snapshot()); got != want {
		t.Errorf("WithSnapshot shows\n%s\nSnapshot shows\n%s", got, want)
	}
	if n := testing.AllocsPerRun(100, func() { root.WithSnapshot(func(SpanData) {}) }); n > 1 && !raceEnabled {
		t.Errorf("WithSnapshot of a 10-span tree allocates %v times, want <= 1 (its text)", n)
	}
}

// TestConcurrentSnapshotsShareOneFrozenTree: 8 goroutines add and end
// children while 2 snapshot and render; once everything has ended, two
// concurrent Snapshots return one tree. Run with -race.
func TestConcurrentSnapshotsShareOneFrozenTree(t *testing.T) {
	root := NewSpan("q", 0)
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 200; i++ {
				c := root.Child(fmt.Sprintf("c%d", g), time.Duration(i))
				c.SetTag("k", "v")
				c.SetTag("k", "w")
				c.SetActual(Cost{Card: float64(i)})
				c.End(time.Duration(i + 1))
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					Explain(root.Snapshot())
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	root.End(time.Second)

	var snaps [2]SpanData
	var wg sync.WaitGroup
	for i := range snaps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snaps[i] = root.Snapshot()
		}(i)
	}
	wg.Wait()
	if len(snaps[0].Children) != 8*200 {
		t.Fatalf("children = %d, want %d", len(snaps[0].Children), 8*200)
	}
	if !reflect.DeepEqual(snaps[0], snaps[1]) || !sameChildren(snaps[0], snaps[1]) {
		t.Error("two concurrent Snapshots of an ended tree are not one shared tree")
	}
}

// TestOpenGrandchildIsNeverFrozen: a tree with one span still open is
// built whole per call and shows that span with End == Start.
func TestOpenGrandchildIsNeverFrozen(t *testing.T) {
	root := NewSpan("q", 0)
	done := root.Child("done", 1)
	done.Child("leaf", 1).End(2)
	done.End(3)
	slow := root.Child("slow", 1)
	open := slow.Child("straggler", 5)
	slow.End(6)
	root.End(7)

	a, b := root.Snapshot(), root.Snapshot()
	if sameChildren(a, b) || sameChildren(a.Children[1], b.Children[1]) {
		t.Error("a tree holding an open span was cached")
	}
	if g := a.Children[1].Children[0]; g.Name != "straggler" || g.Start != 5 || g.End != g.Start {
		t.Errorf("open grandchild snapshots as %+v, want End == Start == 5", g)
	}
	open.End(9)
	c, d := root.Snapshot(), root.Snapshot()
	if !sameChildren(c, d) {
		t.Error("the tree did not freeze once its last span ended")
	}
	if got := c.Children[1].Children[0].End; got != 9 {
		t.Errorf("straggler end = %v, want 9", got)
	}
	if a.Children[1].Children[0].End != 5 {
		t.Error("the earlier snapshot changed when the straggler ended")
	}
}

// TestRingFlightAndExplainReadOneTree: a tag written before the root ends
// is in the flight record (the ring /debug/queries renders) and the
// EXPLAIN — which are one tree, built once.
func TestRingFlightAndExplainReadOneTree(t *testing.T) {
	o := NewObserver()
	root := o.StartQuery("?- q(X).", 0)
	call := root.Child("call d:f(1)", time.Millisecond)
	call.SetTag("cim", "exact")
	call.End(2 * time.Millisecond)
	root.SetTag("answers", "2")
	root.SetTag("zlast", "written just before End")
	root.End(3 * time.Millisecond)

	ring, explain := o.Flight.Records()[0].Root, root.Snapshot()
	for name, d := range map[string]SpanData{"flight": ring, "explain": explain} {
		if d.Tag("zlast") == "" || d.Tag("answers") != "2" || d.Children[0].Tag("cim") != "exact" {
			t.Errorf("%s misses a tag written before End: %+v", name, d)
		}
		if !sameChildren(d, ring) {
			t.Errorf("%s holds its own copy of the tree", name)
		}
	}
	want := "?- q(X).  answers=2  zlast=written just before End  (3.0ms)\n└─ call d:f(1)  cim=exact  (1.0ms)\n"
	if got := Explain(explain); got != want {
		t.Errorf("EXPLAIN =\n%s\nwant\n%s", got, want)
	}

	// A late write un-freezes: the next snapshot carries it, the ring's does not.
	call.SetTag("late", "yes")
	if after := root.Snapshot(); after.Children[0].Tag("late") != "yes" || sameChildren(after, ring) {
		t.Error("a write to a frozen span did not reach the next snapshot")
	}
	if ring.Children[0].Tag("late") != "" {
		t.Error("a write to a frozen span changed the tree already published")
	}
}

// TestTruncateLeavesFrozenTagsAlone: pruning tags a copy of the root's
// tags, though the frozen ones have spare capacity to insert into.
func TestTruncateLeavesFrozenTagsAlone(t *testing.T) {
	root := tenSpanTree()
	d := root.Snapshot()
	before := renderReal(t, d)
	full, _ := AppendSpanJSON(nil, d)
	b, truncated, ok := AppendSpanJSONWithin(nil, d, len(full)-1)
	if !ok || !truncated || !bytes.Contains(b, []byte(`"truncated":"1"`)) {
		t.Fatalf("truncate = %s, %v, %v", b, truncated, ok)
	}
	if renderReal(t, d) != before || renderReal(t, root.Snapshot()) != before {
		t.Error("AppendSpanJSONWithin wrote into its input's tags")
	}
}

// TestRingWindow: the flight recorder's ring keeps the newest records,
// newest first, and overwrites — so releases — what it evicts.
func TestRingWindow(t *testing.T) {
	f := NewFlightRecorder(3, 0)
	if got := f.Records(); len(got) != 0 {
		t.Fatalf("empty ring holds %v", got)
	}
	for i := 0; i < 8; i++ {
		f.Record(SpanData{})
		got := f.Records()
		if len(got) != min(i+1, 3) {
			t.Fatalf("after %d records the ring holds %d", i+1, len(got))
		}
		for j, r := range got {
			if r.Seq != int64(i-j+1) {
				t.Fatalf("after %d records item %d is record %d, want %d", i+1, j, r.Seq, i-j+1)
			}
		}
	}
	for _, r := range f.buf {
		if r.Seq < 6 {
			t.Errorf("evicted record %d is still reachable from the ring", r.Seq)
		}
	}
	if one := NewFlightRecorder(0, 0); len(one.buf) != 1 {
		t.Errorf("minimum capacity = %d, want 1", len(one.buf))
	}
}
