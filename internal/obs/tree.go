package obs

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// tree is a span tree's storage, allocated with its root and guarded by
// one lock. Span and tag records sit in fixed-size chunks that are never
// copied, so a *Span stays valid for the tree's life; the root and the
// first tags live in the tree's own allocation. Children and tags are
// linked by index, newest first. A write to an ended span drops the last
// build for every Snapshot that starts after the writer returns.
type tree struct {
	mu      sync.Mutex
	tracer  *Tracer // End of the root publishes to it
	traceID string
	nspans  int32 // records, Lane handles among them
	ntags   int32
	nodes   int32 // what the root's build holds: spans, and foreign subtrees
	costs   int32
	open    int32 // spans not yet ended
	spans   []*[spanChunk]Span
	tagRecs []*[tagChunk]tagRec
	apps    []Appender // tag values rendered from appenders
	foreign *foreignSub

	// The root's last build, nil once a span it shows as ended is written.
	// pos is nil when every span had ended; otherwise pos[i] places span
	// i's node in built when its whole subtree had ended, and is -1 when
	// not.
	built []SpanData
	pos   []int32

	root     Span
	firstTag [2]tagRec
}

// Chunk sizes: a served call's standalone tree (its root and one tag) is
// one 384-byte allocation, and a query pays at most one chunk's slack of
// each kind. A chunk of 3 spans (384 bytes) or 6 tags (192) fills its size
// class, and so does the first of each with its directory of 8 (448, 256).
// Larger chunks cost a cache-hit query bytes; smaller ones, allocations.
const (
	spanChunk = 3
	tagChunk  = 6
)

// tagRec is one tag as set: its interned key and its value as given (v),
// as a number (n holds an int, a duration or a float's bits) or as the
// tree's appender n. The value is rendered when the tree is first read.
type tagRec struct {
	v          string
	n          uint64
	next       int32  // 1 + the span's next older tag record (0: none)
	key        uint16 // index in keys
	kind, prec uint8
}

const (
	tagStr uint8 = iota
	tagInt
	tagMillis
	tagFixed
	tagApp
)

// foreignSub is one stitched remote subtree of span, newest first.
type foreignSub struct {
	span int32
	d    *SpanData
	next *foreignSub
}

// keys interns tag keys, so that a tag record holds its key as an index
// and fills 32 bytes; holding the key string makes it 48, and a cache-hit
// query of the benchmark 13.98 KiB instead of 13.50. Keys are the outcome
// names of the instrumented call sites: a few dozen constants, never
// released. A table is never changed once published, so every goroutine
// that tags reads it without a lock; keysMu orders the rare writers, each
// of which publishes a copy.
var (
	keys   atomic.Pointer[keyTable]
	keysMu sync.Mutex
)

type keyTable struct {
	index map[string]uint16
	names []string
}

func keyOf(k string) uint16 {
	if t := keys.Load(); t != nil {
		if i, ok := t.index[k]; ok {
			return i
		}
	}
	keysMu.Lock()
	defer keysMu.Unlock()
	t := keys.Load()
	if t == nil {
		t = &keyTable{}
	}
	if i, ok := t.index[k]; ok {
		return i
	}
	if len(t.names) > math.MaxUint16 {
		panic("obs: more than 65536 distinct tag keys")
	}
	i := uint16(len(t.names))
	next := &keyTable{index: make(map[string]uint16, len(t.names)+1), names: append(t.names[:i:i], k)}
	for name, j := range t.index {
		next.index[name] = j
	}
	next.index[k] = i
	keys.Store(next)
	return i
}

// span returns record i. Callers hold tr.mu, as for every tree method.
func (tr *tree) span(i int32) *Span {
	if i == 0 {
		return &tr.root
	}
	i--
	return &tr.spans[i/spanChunk][i%spanChunk]
}

// tag returns tag record i.
func (tr *tree) tag(i int32) *tagRec {
	if i < int32(len(tr.firstTag)) {
		return &tr.firstTag[i]
	}
	i -= int32(len(tr.firstTag))
	return &tr.tagRecs[i/tagChunk][i%tagChunk]
}

// newSpan takes the next span record, opening a chunk when one is full.
func (tr *tree) newSpan() *Span {
	i := tr.nspans
	if i > 0 && (i-1)%spanChunk == 0 {
		tr.spans = grow(tr.spans)
	}
	tr.nspans++
	s := tr.span(i)
	s.tr, s.id = tr, i
	return s
}

// grow adds a chunk to dir. The first chunk carries the directory's first
// eight slots in its own allocation.
func grow[C any](dir []*C) []*C {
	if dir == nil {
		c := new(struct {
			first C
			dir   [8]*C
		})
		return append(c.dir[:0], &c.first)
	}
	return append(dir, new(C))
}

// setTag overwrites t's tag of v's key, or adds v as its newest.
func (tr *tree) setTag(t *Span, v tagRec, a Appender) {
	if a != nil {
		v.n, tr.apps = uint64(len(tr.apps)), append(tr.apps, a)
	} else if v.kind == tagApp {
		v.kind = tagStr // a nil appender renders as ""
	}
	i := t.tags
	for i != 0 && tr.tag(i-1).key != v.key {
		i = tr.tag(i - 1).next
	}
	if i == 0 {
		if j := tr.ntags - int32(len(tr.firstTag)); j >= 0 && j%tagChunk == 0 {
			tr.tagRecs = grow(tr.tagRecs)
		}
		tr.ntags++
		i, v.next, t.tags = tr.ntags, t.tags, tr.ntags
	} else {
		v.next = tr.tag(i - 1).next
	}
	*tr.tag(i - 1) = v
}

// builder is the scratch of one build: the arrays being filled, the text
// rendered so far and the strings to point into it once it is one string.
type builder struct {
	tr      *tree
	nodes   []SpanData
	tags    []Tag
	costs   []Cost
	next    int32
	prev    []SpanData // the last build, whose ended subtrees prevPos places
	prevPos []int32
	pos     []int32
	text    []byte
	fix     []fixup
	order   []int32
	subs    []*foreignSub
	names   []string // keys.names as the build began
	scratch bool
}

type fixup struct {
	s        *string
	off, end int
}

var builders = sync.Pool{New: func() any { return new(builder) }}

// build renders top's subtree as a snapshot: one []SpanData whose
// Children are sub-slices of it, one []Tag, one []Cost that Est and Actual
// point into, and one string that every rendered name and value slices;
// the arrays are sized for the whole tree, exactly so for a root built
// whole. None of them points into the tree's records: what a flight
// record or a caller keeps is copied out. As the root's, the build becomes
// the tree's; a scratch build fills b's own arrays, for b.release to reuse.
func (tr *tree) build(b *builder, top *Span, root bool) SpanData {
	b.tr = tr
	if t := keys.Load(); t != nil {
		b.names = t.names
	}
	partial := root && tr.open > 0
	if partial && tr.pos != nil {
		b.prev, b.prevPos = tr.built, tr.pos
	}
	n, nt, nc := int(tr.nodes), int(tr.ntags), int(tr.costs)
	switch {
	case b.scratch:
		b.nodes = slices.Grow(b.nodes[:0], n)[:n]
		b.tags, b.costs = slices.Grow(b.tags[:0], nt), slices.Grow(b.costs[:0], nc)
	default:
		b.nodes = make([]SpanData, n)
		if nt > 0 {
			b.tags = make([]Tag, 0, nt)
		}
		if nc > 0 {
			b.costs = make([]Cost, 0, nc)
		}
	}
	if partial {
		b.pos = make([]int32, tr.nspans)
		for i := range b.pos {
			b.pos[i] = -1
		}
	}
	b.next = 1
	b.fill(0, top)
	if len(b.text) > 0 {
		text := string(b.text)
		for _, f := range b.fix {
			*f.s = text[f.off:f.end]
		}
	}
	if root {
		tr.built, tr.pos = b.nodes, b.pos
	}
	return b.nodes[0]
}

// release returns b to the pool, keeping a scratch build's arrays, emptied.
func (b *builder) release() {
	clear(b.fix)
	clear(b.subs)
	keep := builder{text: b.text[:0], fix: b.fix[:0], order: b.order[:0], subs: b.subs[:0]}
	if b.scratch {
		clear(b.nodes)
		clear(b.tags)
		keep.nodes, keep.tags, keep.costs = b.nodes[:0], b.tags[:0], b.costs[:0]
	}
	*b = keep
	builders.Put(b)
}

// reused returns where the last build holds span i's ended subtree, or -1.
func (b *builder) reused(i int32) int32 {
	if int(i) >= len(b.prevPos) {
		return -1
	}
	return b.prevPos[i]
}

// render appends a name's appender a, or else tag t's value, to the text,
// and points *s at what it wrote.
func (b *builder) render(s *string, a Appender, t *tagRec) {
	off := len(b.text)
	switch {
	case a != nil:
		b.text = a.AppendTo(b.text)
	case t.kind == tagInt:
		b.text = strconv.AppendInt(b.text, int64(t.n), 10)
	case t.kind == tagMillis:
		b.text = AppendMillis(b.text, time.Duration(t.n))
	case t.kind == tagFixed:
		b.text = AppendFixed(b.text, math.Float64frombits(t.n), int(t.prec))
	default:
		b.text = b.tr.apps[t.n].AppendTo(b.text)
	}
	if len(b.text) > off {
		b.fix = append(b.fix, fixup{s, off, len(b.text)})
	}
}

// sorted puts the indices in b.order[from:], listed newest first, in
// order by cmp, equal ones in the order they were listed.
func (b *builder) sorted(from int, cmp func(x, y int32) int) []int32 {
	o := b.order[from:]
	slices.Reverse(o)
	slices.SortStableFunc(o, cmp)
	return o
}

// fill writes r's node at position at, its children in one block taken
// after the nodes already placed, and reports whether r's whole subtree
// has ended.
func (b *builder) fill(at int32, r *Span) bool {
	tr, d := b.tr, &b.nodes[at]
	all := r.flags&ended != 0
	d.Name, d.Start, d.End = r.name, r.start, r.end
	if !all {
		d.End = r.start
	}
	if r.nameA != nil {
		b.render(&d.Name, r.nameA, nil)
	}
	mark := len(b.order)
	if r.tags != 0 {
		for i := r.tags; i != 0; i = tr.tag(i - 1).next {
			b.order = append(b.order, i-1)
		}
		first := len(b.tags)
		for _, i := range b.sorted(mark, func(x, y int32) int { return strings.Compare(b.names[tr.tag(x).key], b.names[tr.tag(y).key]) }) {
			t := tr.tag(i)
			b.tags = append(b.tags, Tag{K: b.names[t.key], V: t.v})
			if t.kind != tagStr {
				b.render(&b.tags[len(b.tags)-1].V, nil, t)
			}
		}
		d.Tags = b.tags[first:len(b.tags):len(b.tags)]
		b.order = b.order[:mark]
	}
	if r.flags&hasEst != 0 {
		b.costs = append(b.costs, r.est)
		d.Est = &b.costs[len(b.costs)-1]
	}
	if r.flags&hasActual != 0 {
		b.costs = append(b.costs, r.actual)
		d.Actual = &b.costs[len(b.costs)-1]
	}
	// Children by start, then lane, then opening order; foreign subtrees
	// after them in attaching order.
	for i := r.kids; i != 0; i = tr.span(i).next {
		b.order = append(b.order, i)
	}
	kids := b.sorted(mark, func(x, y int32) int {
		a, c := tr.span(x), tr.span(y)
		return cmp.Or(cmp.Compare(a.start, c.start), cmp.Compare(a.lane, c.lane))
	})
	subs := len(b.subs)
	if r.flags&hasForeign != 0 {
		for f := tr.foreign; f != nil; f = f.next {
			if f.span == r.id {
				b.subs = append(b.subs, f)
			}
		}
	}
	if k := int32(len(kids) + len(b.subs) - subs); k > 0 {
		first := b.next
		b.next += k
		d.Children = b.nodes[first:b.next:b.next]
		for _, i := range kids {
			if p := b.reused(i); p >= 0 {
				b.nodes[first] = b.prev[p]
				b.pos[i] = first
			} else if !b.fill(first, tr.span(i)) {
				all = false
			}
			first++
		}
		for j := len(b.subs) - 1; j >= subs; j-- {
			b.nodes[first] = *b.subs[j].d
			first++
		}
	}
	b.order, b.subs = b.order[:mark], b.subs[:subs]
	if all && b.pos != nil {
		b.pos[r.id] = at
	}
	return all
}
