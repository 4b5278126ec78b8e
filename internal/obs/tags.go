package obs

import (
	"slices"
	"strings"

	"hermes/internal/term"
)

// Tag is one outcome tag of a span (cim=exact, breaker=open, ...).
type Tag struct{ K, V string }

// Tags is a span's outcome tags: a handful of pairs, unique by key and kept
// sorted by key (a hand-built literal must be too), the order Explain
// renders them in. On the wire Tags is the JSON object a map[string]string
// encodes to, byte for byte.
type Tags []Tag

// Lookup returns the value of tag k.
func (t Tags) Lookup(k string) (string, bool) {
	for i := range t {
		if t[i].K == k {
			return t[i].V, true
		}
	}
	return "", false
}

// set overwrites k's value or inserts the pair in key order.
func (t Tags) set(k, v string) Tags {
	i, found := slices.BinarySearchFunc(t, k, func(e Tag, k string) int { return strings.Compare(e.K, k) })
	if found {
		t[i].V = v
		return t
	}
	if t == nil {
		t = make(Tags, 0, 4) // a span rarely carries more
	}
	return slices.Insert(t, i, Tag{k, v})
}

// MarshalJSON emits what encoding/json emits for the same pairs in a map.
func (t Tags) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	return t.appendJSON(nil), nil
}

// appendJSON writes t as the object of a map: keys in order, strings
// HTML-escaped.
func (t Tags) appendJSON(dst []byte) []byte {
	dst = append(dst, '{')
	for i, kv := range t {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(term.AppendJSONString(dst, kv.K), ':')
		dst = term.AppendJSONString(dst, kv.V)
	}
	return append(dst, '}')
}

// UnmarshalJSON accepts what a map[string]string accepts: a repeated key
// keeps its last value, a null value is "", a value of another type is an
// error. null leaves t untouched, {} makes it empty.
func (t *Tags) UnmarshalJSON(b []byte) error {
	var s spanReader
	s.r.Reset(b)
	if s.r.Null() {
		return s.r.End()
	}
	run := s.readTags()
	if err := s.r.End(); err != nil {
		return err
	}
	text, out := string(s.text), make(Tags, 0, run.end-run.off)
	for _, kv := range s.tags[run.off:run.end] {
		out = append(out, Tag{text[kv.k.off:kv.k.end], text[kv.v.off:kv.v.end]})
	}
	*t = out
	return nil
}
