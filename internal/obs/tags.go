package obs

import (
	"encoding/json"
	"slices"
	"strings"
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
	b := []byte{'{'}
	for i, kv := range t {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(appendJSONString(b, kv.K), ':')
		b = appendJSONString(b, kv.V)
	}
	return append(b, '}'), nil
}

// appendJSONString quotes s; one that needs an escape goes to encoding/json.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			q, _ := json.Marshal(s) // a string cannot fail to marshal
			return append(dst, q...)
		}
	}
	return append(append(append(dst, '"'), s...), '"')
}

// UnmarshalJSON accepts what a map[string]string accepts by decoding
// through one: duplicate keys, null values, escapes and type errors are
// treated as they were. null leaves t untouched, {} makes it empty.
func (t *Tags) UnmarshalJSON(b []byte) error {
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil || m == nil {
		return err
	}
	out := make(Tags, 0, len(m))
	for k, v := range m {
		out = append(out, Tag{k, v})
	}
	slices.SortFunc(out, func(a, b Tag) int { return strings.Compare(a.K, b.K) })
	*t = out
	return nil
}
