package term

import (
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func genValue(rng *rand.Rand, depth int) Value {
	if depth <= 0 {
		switch rng.Intn(4) {
		case 0:
			return Str(string(rune('a' + rng.Intn(26))))
		case 1:
			return Int(rng.Int63() - rng.Int63())
		case 2:
			return Float(rng.NormFloat64())
		default:
			return Bool(rng.Intn(2) == 0)
		}
	}
	switch rng.Intn(6) {
	case 0:
		n := rng.Intn(4)
		t := make(Tuple, n)
		for i := range t {
			t[i] = genValue(rng, depth-1)
		}
		return t
	case 1:
		n := rng.Intn(4)
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = Field{Name: string(rune('a' + i)), Val: genValue(rng, depth-1)}
		}
		return NewRecord(fields...)
	default:
		return genValue(rng, 0)
	}
}

// TestJSONRoundTripRandom: encode/decode preserves every value exactly
// (by canonical key), including through an actual JSON marshal.
func TestJSONRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		v := genValue(rng, 3)
		w, err := EncodeJSON(v)
		if err != nil {
			t.Fatalf("case %d encode: %v", i, err)
		}
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("case %d marshal: %v", i, err)
		}
		var w2 JSONValue
		if err := json.Unmarshal(raw, &w2); err != nil {
			t.Fatalf("case %d unmarshal: %v", i, err)
		}
		got, err := DecodeJSON(w2)
		if err != nil {
			t.Fatalf("case %d decode: %v", i, err)
		}
		if !Equal(v, got) {
			t.Fatalf("case %d: %s -> %s", i, v, got)
		}
	}
}

// TestJSONIntExactness: int64 values beyond float64 precision survive.
func TestJSONIntExactness(t *testing.T) {
	f := func(n int64) bool {
		w, err := EncodeJSON(Int(n))
		if err != nil {
			return false
		}
		raw, _ := json.Marshal(w)
		var w2 JSONValue
		json.Unmarshal(raw, &w2)
		got, err := DecodeJSON(w2)
		return err == nil && Equal(got, Int(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestJSONDecodeErrors(t *testing.T) {
	if _, err := DecodeJSON(JSONValue{T: "nope"}); err == nil {
		t.Error("unknown tag")
	}
	if _, err := DecodeJSON(JSONValue{T: "i", S: "xyz"}); err == nil {
		t.Error("bad int payload")
	}
	if _, err := DecodeJSON(JSONValue{T: "tu", L: []JSONValue{{T: "nope"}}}); err == nil {
		t.Error("nested error must propagate")
	}
	if _, err := DecodeJSON(JSONValue{T: "r", R: []JSONField{{N: "x", V: JSONValue{T: "nope"}}}}); err == nil {
		t.Error("record field error must propagate")
	}
}

func TestJSONSlices(t *testing.T) {
	vals := []Value{Int(1), Str("a"), Bool(true)}
	ws, err := EncodeJSONs(vals)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeJSONs(ws)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if !Equal(vals[i], got[i]) {
			t.Errorf("slice element %d: %s != %s", i, vals[i], got[i])
		}
	}
	if _, err := DecodeJSONs([]JSONValue{{T: "zz"}}); err == nil {
		t.Error("bad element must fail")
	}
}

// wireCorpus adds to equalCorpus the values whose JSON text is delicate:
// escapes, HTML characters, control and invalid UTF-8 bytes, U+2028, the
// float format's 'e' cutoffs, and the non-finite floats no JSON text holds.
func wireCorpus() []Value {
	vals := equalCorpus()
	for _, s := range []string{"<a&b>", "\x00\x1f\x7f", "\b\f\n\r\t", "\u2028\u2029", "日本", "\xed\xa0\x80", "a\xffb\xc3"} {
		vals = append(vals, Str(s), NewRecord(Field{s, Str(s)}))
	}
	for _, f := range []float64{1e-6, 9.99e-7, 1e20, 1e21, 123.456, -2.5e-8, 5e-324, math.MaxFloat64, -1e300} {
		vals = append(vals, Float(f), Tuple{Float(f)})
	}
	return append(vals, Tuple{Int(1), Float(math.NaN())}, NewRecord(Field{"x", Float(math.Inf(-1))}))
}

// TestAppendJSONMatchesMarshal: the hand-written value encoder writes
// exactly the bytes json.Marshal writes for EncodeJSON's form, fails
// exactly where it fails, and JSONReader.Value reads the text back to the
// value encoding/json reads from it.
func TestAppendJSONMatchesMarshal(t *testing.T) {
	vals := wireCorpus()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		vals = append(vals, genValue(rng, 3))
	}
	var r JSONReader
	for _, v := range vals {
		got, err := AppendJSON(nil, v)
		w, _ := EncodeJSON(v)
		want, werr := json.Marshal(w)
		if (err != nil) != (werr != nil) {
			t.Fatalf("%s: AppendJSON err %v, json.Marshal err %v", v, err, werr)
		}
		if err != nil {
			continue
		}
		if string(got) != string(want) {
			t.Fatalf("%s:\n got %s\nwant %s", v, got, want)
		}
		var w2 JSONValue
		json.Unmarshal(want, &w2)
		sent, _ := DecodeJSON(w2) // v, but -0 arrives as 0: omitempty drops it
		r.Reset(got)
		back, err := r.Value()
		if end := r.End(); err != nil || end != nil || !Equal(back, sent) {
			t.Fatalf("%s: read back %v, %v, %v", v, back, err, end)
		}
	}
}

// foldedKey reports whether a decoded JSON tree holds an object key that
// is not one of names but matches one case-insensitively: there
// encoding/json and the exact-key hand decoder part ways by design.
func foldedKey(v any, names ...string) bool {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			for _, n := range names {
				if k != n && strings.EqualFold(k, n) {
					return true
				}
			}
			if foldedKey(e, names...) {
				return true
			}
		}
	case []any:
		for _, e := range x {
			if foldedKey(e, names...) {
				return true
			}
		}
	}
	return false
}
