package obs

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
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
func DecodeSpanJSON(b []byte) (SpanData, error) {
	var s spanReader
	s.r.Reset(b)
	var d SpanData
	s.span(&d, 0)
	if s.err == nil {
		if err := s.r.End(); err != nil {
			s.err = fmt.Errorf("obs: span subtree: %w", err)
		}
	}
	if s.err != nil {
		return SpanData{}, s.err
	}
	return d, nil
}

// spanReader reads one subtree. Syntax and type errors stick in r; a
// validation error sticks in err.
type spanReader struct {
	r     term.JSONReader
	nodes int
	err   error
}

// span reads one span, at nesting level depth, into d, counting it against
// the limits before reading it and checking its fields after.
func (s *spanReader) span(d *SpanData, depth int) {
	switch {
	case depth > MaxSpanDepth:
		s.err = fmt.Errorf("obs: span subtree deeper than %d", MaxSpanDepth)
		return
	case s.nodes >= MaxSpanNodes:
		s.err = fmt.Errorf("obs: span subtree larger than %d nodes", MaxSpanNodes)
		return
	}
	s.nodes++
	if !s.r.Null() {
		s.fields(d, depth)
	}
	if s.err != nil || s.r.Err() != nil {
		return
	}
	switch {
	case d.Name == "":
		s.err = errors.New("obs: span subtree contains an unnamed span")
	case d.End < d.Start:
		s.err = fmt.Errorf("obs: span %q ends before it starts", d.Name)
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

// fields reads a span object's members into d.
func (s *spanReader) fields(d *SpanData, depth int) {
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
			d.Name = r.Str()
		case "start":
			d.Start = time.Duration(r.Int())
		case "end":
			d.End = time.Duration(r.Int())
		case "tags":
			d.Tags = readTags(r)
		case "est":
			d.Est = s.cost()
		case "actual":
			d.Actual = s.cost()
		case "children":
			d.Children = []SpanData{}
			for more := r.Open('['); more && s.err == nil; more = r.More(']') {
				d.Children = append(d.Children, SpanData{})
				s.span(&d.Children[len(d.Children)-1], depth+1)
			}
		default:
			r.Skip()
		}
	}
}

// cost reads a Cost object.
func (s *spanReader) cost() *Cost {
	r := &s.r
	c := new(Cost)
	var seen uint8
	for more := r.Open('{'); more; more = r.More('}') {
		key := r.Key()
		if s.seenKey(&seen, key, costKeys[:]); s.err != nil {
			return c
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
	return c
}

// TruncateSpanJSON encodes d in at most maxBytes, pruning the deepest
// levels first until the encoding fits and tagging the root TruncatedTag=1
// when anything was pruned. maxBytes <= 0 means unlimited. ok is false when
// even the root alone does not fit.
func TruncateSpanJSON(d SpanData, maxBytes int) (b []byte, truncated, ok bool) {
	b, err := AppendSpanJSON(nil, d)
	if err != nil {
		return nil, false, false
	}
	if maxBytes <= 0 || len(b) <= maxBytes {
		return b, false, true
	}
	d.Tags = slices.Clone(d.Tags).set(TruncatedTag, "1") // the caller's stay as they are
	for keep := spanDepth(d) - 1; keep >= 0; keep-- {
		// A pruned tree encodes: the whole one did.
		if b, _ = appendSpan(b[:0], &d, keep); len(b) <= maxBytes {
			return b, true, true
		}
	}
	return nil, true, false
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

// RebaseSpan shifts every clock reading in d so the root starts at base.
// Stitching uses it to map a peer's serve subtree (timed on the peer's own
// clock) onto the caller's execution-clock axis at the moment the call was
// issued, so one EXPLAIN tree reads on a single axis.
func RebaseSpan(d SpanData, base time.Duration) SpanData {
	return shiftSpan(d, base-d.Start)
}

func shiftSpan(d SpanData, by time.Duration) SpanData {
	out := d
	out.Start += by
	out.End += by
	if len(d.Children) > 0 {
		out.Children = make([]SpanData, len(d.Children))
		for i, c := range d.Children {
			out.Children[i] = shiftSpan(c, by)
		}
	}
	return out
}
