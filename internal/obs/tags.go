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
	var r term.JSONReader
	r.Reset(b)
	if r.Null() {
		return r.End()
	}
	out := readTags(&r)
	if err := r.End(); err != nil {
		return err
	}
	*t = out
	return nil
}

// readTags reads a non-null tags object.
func readTags(r *term.JSONReader) Tags {
	var t Tags
	for more := r.Open('{'); more; more = r.More('}') {
		k := string(r.Key())
		v := ""
		if !r.Null() {
			v = r.Str()
		}
		if n := len(t); n == 0 || t[n-1].K < k {
			t = append(t, Tag{k, v}) // in order, as encoded: sized to fit
		} else {
			t = t.set(k, v)
		}
	}
	if t == nil {
		t = Tags{}
	}
	return t
}
