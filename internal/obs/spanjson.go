package obs

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"time"

	"hermes/internal/term"
)

// Span-subtree JSON: the wire form a remote hermesd uses to ship the span
// tree it built while serving one call back to the caller, who stitches it
// under the local call span. The format is the SpanData JSON encoding,
// written and read by hand: AppendSpanJSON writes the bytes json.Marshal
// writes, and DecodeSpanJSON reads what json.Unmarshal reads or fails
// (matching keys exactly, refusing repeated ones), validating structure
// as it goes so a malformed or hostile peer subtree is rejected
// with an error, never a panic or an unbounded allocation. encoding/json
// is the tests' oracle (FuzzSpanCodec) and shares no code with either.

// Limits enforced by DecodeSpanJSON on peer-supplied subtrees.
const (
	// MaxSpanDepth bounds subtree nesting.
	MaxSpanDepth = 64
	// MaxSpanNodes bounds total node count.
	MaxSpanNodes = 16384
)

// TruncatedTag marks a subtree whose deeper levels were pruned to fit a
// byte budget (value "1"); the caller's EXPLAIN shows the cut instead of
// silently dropping the subtree.
const TruncatedTag = "truncated"

// EncodeSpanJSON renders a span snapshot as its wire JSON.
func EncodeSpanJSON(d SpanData) ([]byte, error) {
	return AppendSpanJSON(nil, d)
}

// AppendSpanJSON appends the bytes json.Marshal(d) writes: fields in
// declaration order, omitempty as declared, Cost under its Go field names,
// Card in encoding/json's float format, Tags as the object of a map and
// strings HTML-escaped. A NaN or ±Inf Card has no JSON text and is an
// error, as it is for json.Marshal.
func AppendSpanJSON(dst []byte, d SpanData) ([]byte, error) {
	return appendSpan(dst, &d, -1)
}

// appendSpan writes d with keep more levels of children (keep < 0: all).
func appendSpan(dst []byte, d *SpanData, keep int) ([]byte, error) {
	dst = term.AppendJSONString(append(dst, `{"name":`...), d.Name)
	dst = strconv.AppendInt(append(dst, `,"start":`...), int64(d.Start), 10)
	dst = strconv.AppendInt(append(dst, `,"end":`...), int64(d.End), 10)
	if len(d.Tags) > 0 {
		dst = d.Tags.appendJSON(append(dst, `,"tags":`...))
	}
	var err error
	if dst, err = appendCostJSON(dst, `,"est":`, d.Est); err != nil {
		return dst, err
	}
	if dst, err = appendCostJSON(dst, `,"actual":`, d.Actual); err != nil {
		return dst, err
	}
	if len(d.Children) > 0 && keep != 0 {
		dst = append(dst, `,"children":[`...)
		for i := range d.Children {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, err = appendSpan(dst, &d.Children[i], keep-1); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// appendCostJSON writes one omitempty *Cost member.
func appendCostJSON(dst []byte, key string, c *Cost) ([]byte, error) {
	if c == nil {
		return dst, nil
	}
	if math.IsNaN(c.Card) || math.IsInf(c.Card, 0) {
		return dst, fmt.Errorf("obs: span cost Card %v has no JSON text", c.Card)
	}
	dst = strconv.AppendInt(append(append(dst, key...), `{"TFirst":`...), int64(c.TFirst), 10)
	dst = strconv.AppendInt(append(dst, `,"TAll":`...), int64(c.TAll), 10)
	dst = term.AppendJSONFloat(append(dst, `,"Card":`...), c.Card)
	return append(dst, '}'), nil
}

// DecodeSpanJSON parses a peer-supplied span subtree, validating structure:
// depth and node count are bounded, every span is named, and no span ends
// before it starts. Invalid input returns an error; the zero SpanData is
// returned alongside it.
//
// For every payload it yields the SpanData json.Unmarshal yields followed
// by those checks, or an error: unknown keys are skipped, null leaves a
// field unset, a repeated tag key keeps its last value. It is stricter
// where encoding/json is lenient, as the frame codec is — a span or cost
// object that repeats a key is an error — and matches keys exactly as
// spelled, where encoding/json also matches them case-insensitively. Each
// span is checked as it is read, so a tree past MaxSpanDepth or
// MaxSpanNodes, or an unnamed span, is rejected where it is reached, not
// after the whole payload has been built.
//
// The tree comes back in the layout of a snapshot: one node array, one tag
// array, one cost array and one string, none of which aliases b.
func DecodeSpanJSON(b []byte) (SpanData, error) {
	s := spanReaders.Get().(*spanReader)
	defer func() {
		s.r.Reset(nil)
		*s = spanReader{r: s.r, flat: s.flat[:0], tags: s.tags[:0], costs: s.costs[:0], text: s.text[:0], block: s.block[:0]}
		spanReaders.Put(s)
	}()
	s.r.Reset(b)
	s.span(-1, 0)
	if s.err == nil {
		if err := s.r.End(); err != nil {
			s.err = fmt.Errorf("obs: span subtree: %w", err)
		}
	}
	if s.err != nil {
		return SpanData{}, s.err
	}
	return s.batch(), nil
}

// spanReader reads one subtree into flat scratch, spans in the order read.
// Syntax and type errors stick in r; a validation error sticks in err.
type spanReader struct {
	r     term.JSONReader
	err   error
	flat  []flatSpan
	tags  []flatTag
	costs []Cost
	text  []byte  // every name, key and value read, unescaped
	block []int32 // batch's scratch: where each span's children start
}

var spanReaders = sync.Pool{New: func() any { return new(spanReader) }}

// textRange is a string read, as its bounds in spanReader.text.
type textRange struct{ off, end int32 }

type flatSpan struct {
	start, end       time.Duration
	name             textRange
	parent, rank     int32 // the parent's index (-1: the root) and this span's place under it
	kids             int32
	tags             textRange // bounds in spanReader.tags
	est, actual      int32     // 1 + index in spanReader.costs (0: none)
	hasTags, hasKids bool      // set, so empty rather than nil
}

type flatTag struct{ k, v textRange }

// keep copies a string read into the text.
func (s *spanReader) keep(b []byte) textRange {
	off := int32(len(s.text))
	s.text = append(s.text, b...)
	return textRange{off, int32(len(s.text))}
}

// span reads one span under parent, at nesting level depth, counting it
// against the limits before reading it and checking its fields after.
func (s *spanReader) span(parent int32, depth int) {
	switch {
	case depth > MaxSpanDepth:
		s.err = fmt.Errorf("obs: span subtree deeper than %d", MaxSpanDepth)
		return
	case len(s.flat) >= MaxSpanNodes:
		s.err = fmt.Errorf("obs: span subtree larger than %d nodes", MaxSpanNodes)
		return
	}
	i := int32(len(s.flat))
	s.flat = append(s.flat, flatSpan{parent: parent})
	if parent >= 0 {
		s.flat[i].rank = s.flat[parent].kids
		s.flat[parent].kids++
	}
	if !s.r.Null() {
		s.fields(i, depth)
	}
	if s.err != nil || s.r.Err() != nil {
		return
	}
	switch f := &s.flat[i]; {
	case f.name.off == f.name.end:
		s.err = errors.New("obs: span subtree contains an unnamed span")
	case f.end < f.start:
		s.err = fmt.Errorf("obs: span %q ends before it starts", s.text[f.name.off:f.name.end])
	}
}

// spanKeys and costKeys are the JSON keys of SpanData and Cost; a key's
// bit in a reader's seen-set is 1 << its index.
var (
	spanKeys = [...]string{"name", "start", "end", "tags", "est", "actual", "children"}
	costKeys = [...]string{"TFirst", "TAll", "Card"}
)

// seenKey marks key in seen if it is one of keys; a repeat is an error.
func (s *spanReader) seenKey(seen *uint8, key []byte, keys []string) {
	for i, k := range keys {
		if string(key) == k {
			if *seen&(1<<i) != 0 {
				s.err = fmt.Errorf("obs: span subtree repeats key %q", key)
			}
			*seen |= 1 << i
		}
	}
}

// fields reads span i's members.
func (s *spanReader) fields(i int32, depth int) {
	r := &s.r
	var seen uint8
	for more := r.Open('{'); more && s.err == nil; more = r.More('}') {
		key := r.Key()
		if s.seenKey(&seen, key, spanKeys[:]); s.err != nil {
			return
		}
		if r.Null() {
			continue
		}
		switch string(key) {
		case "name":
			s.flat[i].name = s.keep(r.Text())
		case "start":
			s.flat[i].start = time.Duration(r.Int())
		case "end":
			s.flat[i].end = time.Duration(r.Int())
		case "tags":
			s.flat[i].tags, s.flat[i].hasTags = s.readTags(), true
		case "est":
			s.flat[i].est = s.cost()
		case "actual":
			s.flat[i].actual = s.cost()
		case "children":
			s.flat[i].hasKids = true
			for more := r.Open('['); more && s.err == nil; more = r.More(']') {
				s.span(i, depth+1)
			}
		default:
			r.Skip()
		}
	}
}

// readTags reads a non-null tags object into one run of s.tags, sorted by
// key, a repeated key keeping its last value, and returns the run's bounds.
func (s *spanReader) readTags() textRange {
	r, first := &s.r, len(s.tags)
	for more := r.Open('{'); more; more = r.More('}') {
		t := flatTag{k: s.keep(r.Key())}
		if !r.Null() {
			t.v = s.keep(r.Text())
		}
		i, found := slices.BinarySearchFunc(s.tags[first:], t.k, func(e flatTag, k textRange) int {
			return bytes.Compare(s.text[e.k.off:e.k.end], s.text[k.off:k.end])
		})
		if found {
			s.tags[first+i].v = t.v
		} else {
			s.tags = slices.Insert(s.tags, first+i, t)
		}
	}
	return textRange{int32(first), int32(len(s.tags))}
}

// cost reads a Cost object and returns 1 + its index in s.costs.
func (s *spanReader) cost() int32 {
	r := &s.r
	s.costs = append(s.costs, Cost{})
	c := &s.costs[len(s.costs)-1]
	var seen uint8
	for more := r.Open('{'); more; more = r.More('}') {
		key := r.Key()
		if s.seenKey(&seen, key, costKeys[:]); s.err != nil {
			break
		}
		if r.Null() {
			continue
		}
		switch string(key) {
		case "TFirst":
			c.TFirst = time.Duration(r.Int())
		case "TAll":
			c.TAll = time.Duration(r.Int())
		case "Card":
			c.Card = r.Float()
		default:
			r.Skip()
		}
	}
	return int32(len(s.costs))
}

// batch lays the spans read out as a snapshot is: each span's children
// one block of the node array, in pre-order of their parents. The root is
// returned by value, so a lone span needs no node array.
func (s *spanReader) batch() SpanData {
	var root SpanData
	var nodes []SpanData
	if len(s.flat) > 1 {
		nodes = make([]SpanData, len(s.flat)-1)
	}
	next := int32(0)
	for _, f := range s.flat {
		s.block = append(s.block, next)
		next += f.kids
	}
	var tags []Tag
	if len(s.tags) > 0 {
		tags = make([]Tag, len(s.tags))
	}
	costs := slices.Clone(s.costs)
	text := string(s.text)
	str := func(t textRange) string { return text[t.off:t.end] }
	for i, f := range s.flat {
		d := &root
		if f.parent >= 0 {
			d = &nodes[s.block[f.parent]+f.rank]
		}
		d.Name, d.Start, d.End = str(f.name), f.start, f.end
		if f.hasTags {
			d.Tags = Tags{}
			if f.tags.off < f.tags.end {
				for j := f.tags.off; j < f.tags.end; j++ {
					tags[j] = Tag{str(s.tags[j].k), str(s.tags[j].v)}
				}
				d.Tags = tags[f.tags.off:f.tags.end:f.tags.end]
			}
		}
		if f.est > 0 {
			d.Est = &costs[f.est-1]
		}
		if f.actual > 0 {
			d.Actual = &costs[f.actual-1]
		}
		if f.hasKids {
			d.Children = []SpanData{}
			if at := s.block[i]; f.kids > 0 {
				d.Children = nodes[at : at+f.kids : at+f.kids]
			}
		}
	}
	return root
}

// AppendSpanJSONWithin appends d's encoding in at most maxBytes, pruning
// the deepest levels first until it fits and tagging the root
// TruncatedTag=1 when anything was pruned. maxBytes <= 0 means unlimited.
// ok is false, and dst comes back as it was, when even the root alone does
// not fit or d has no JSON text. The remote server writes a call's trace
// frame with it, straight into the frame.
func AppendSpanJSONWithin(dst []byte, d SpanData, maxBytes int) (b []byte, truncated, ok bool) {
	start := len(dst)
	b, err := AppendSpanJSON(dst, d)
	if err != nil {
		return b[:start], false, false
	}
	if maxBytes <= 0 || len(b)-start <= maxBytes {
		return b, false, true
	}
	d.Tags = slices.Clone(d.Tags).set(TruncatedTag, "1") // the caller's stay as they are
	for keep := spanDepth(d) - 1; keep >= 0; keep-- {
		// A pruned tree encodes: the whole one did.
		if b, _ = appendSpan(b[:start], &d, keep); len(b)-start <= maxBytes {
			return b, true, true
		}
	}
	return b[:start], true, false
}

// spanDepth returns the deepest nesting level in d (root = 0).
func spanDepth(d SpanData) int {
	max := 0
	for _, c := range d.Children {
		if n := spanDepth(c) + 1; n > max {
			max = n
		}
	}
	return max
}

// RebaseSpan shifts every clock reading in d, in place, so the root
// starts at base. Stitching uses it to map a peer's serve subtree (timed on
// the peer's own clock), decoded for the one call, onto the caller's
// execution-clock axis at the moment the call was issued, so one EXPLAIN
// tree reads on a single axis.
func RebaseSpan(d *SpanData, base time.Duration) {
	shiftSpan(d, base-d.Start)
}

func shiftSpan(d *SpanData, by time.Duration) {
	d.Start += by
	d.End += by
	for i := range d.Children {
		shiftSpan(&d.Children[i], by)
	}
}
