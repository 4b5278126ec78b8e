package term

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

// JSONValue is the reflective form of a value's JSON text, kept as the
// hand-written codec's oracle: encoding/json marshals and unmarshals it,
// and shares no code with AppendJSON or JSONReader.
type JSONValue struct {
	T string      `json:"t"`           // s, i, f, b, tu, r
	S string      `json:"s,omitempty"` // string payload (also int64 text)
	F float64     `json:"f,omitempty"`
	B bool        `json:"b,omitempty"`
	L []JSONValue `json:"l,omitempty"` // tuple elements
	R []JSONField `json:"r,omitempty"` // record fields
}

// JSONField is one record field in a JSONValue.
type JSONField struct {
	N string    `json:"n"`
	V JSONValue `json:"v"`
}

// EncodeJSON converts a Value to its oracle form.
func EncodeJSON(v Value) (JSONValue, error) {
	switch cv := v.(type) {
	case Str:
		return JSONValue{T: "s", S: string(cv)}, nil
	case Int:
		return JSONValue{T: "i", S: strconv.FormatInt(int64(cv), 10)}, nil
	case Float:
		return JSONValue{T: "f", F: float64(cv)}, nil
	case Bool:
		return JSONValue{T: "b", B: bool(cv)}, nil
	case Tuple:
		out := JSONValue{T: "tu", L: make([]JSONValue, len(cv))}
		for i, e := range cv {
			we, err := EncodeJSON(e)
			if err != nil {
				return JSONValue{}, err
			}
			out.L[i] = we
		}
		return out, nil
	case Record:
		fields := cv.Fields()
		out := JSONValue{T: "r", R: make([]JSONField, len(fields))}
		for i, f := range fields {
			wv, err := EncodeJSON(f.Val)
			if err != nil {
				return JSONValue{}, err
			}
			out.R[i] = JSONField{N: f.Name, V: wv}
		}
		return out, nil
	}
	return JSONValue{}, fmt.Errorf("term: cannot encode value of kind %v", v.Kind())
}

// DecodeJSON converts an oracle form back to a Value.
func DecodeJSON(w JSONValue) (Value, error) {
	switch w.T {
	case "s":
		return Str(w.S), nil
	case "i":
		n, err := strconv.ParseInt(w.S, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("term: bad int payload %q", w.S)
		}
		return Int(n), nil
	case "f":
		return Float(w.F), nil
	case "b":
		return Bool(w.B), nil
	case "tu":
		out := make(Tuple, len(w.L))
		for i, e := range w.L {
			v, err := DecodeJSON(e)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case "r":
		fields := make([]Field, len(w.R))
		for i, f := range w.R {
			v, err := DecodeJSON(f.V)
			if err != nil {
				return nil, err
			}
			fields[i] = Field{Name: f.N, Val: v}
		}
		return NewRecord(fields...), nil
	}
	return nil, fmt.Errorf("term: unknown value tag %q", w.T)
}

// dropNegZero undoes the hand codec's one deliberate difference from
// json.Marshal of the oracle form: AppendJSON writes a negative zero as
// "f":-0 so that it keeps its sign, where omitempty drops the key. No
// string can hold the pattern, since a quote inside a string is escaped.
func dropNegZero(text []byte) []byte {
	return bytes.ReplaceAll(text, []byte(`,"f":-0}`), []byte(`}`))
}

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

// TestJSONRepeatedKey: a value or record-field form that repeats one of
// its keys is an error, where encoding/json keeps the last value; the same
// form with the key once decodes, and an unknown key may repeat.
func TestJSONRepeatedKey(t *testing.T) {
	const one = `{"t":"i","s":"1"}`
	for _, c := range []struct{ name, once, twice string }{
		{"tag", `{"t":"s","s":"x"}`, `{"t":"s","t":"s","s":"x"}`},
		{"string", `{"t":"s","s":"x"}`, `{"t":"s","s":"x","s":"x"}`},
		{"float", `{"t":"f","f":1.5}`, `{"t":"f","f":1.5,"f":1.5}`},
		{"bool", `{"t":"b","b":true}`, `{"t":"b","b":true,"b":true}`},
		{"tuple", `{"t":"tu","l":[` + one + `]}`, `{"t":"tu","l":[` + one + `],"l":[]}`},
		{"record", `{"t":"r","r":[{"n":"a","v":` + one + `}]}`, `{"t":"r","r":[],"r":[{"n":"a","v":` + one + `}]}`},
		{"field name", `{"t":"r","r":[{"n":"a","v":` + one + `}]}`, `{"t":"r","r":[{"n":"a","n":"a","v":` + one + `}]}`},
		{"field value", `{"t":"r","r":[{"n":"a","v":` + one + `}]}`, `{"t":"r","r":[{"n":"a","v":` + one + `,"v":` + one + `}]}`},
	} {
		if _, err := DecodeJSONs([]byte("[" + c.once + "]")); err != nil {
			t.Errorf("%s once: %s: %v", c.name, c.once, err)
		}
		if _, err := DecodeJSONs([]byte("[" + c.twice + "]")); err == nil || !strings.Contains(err.Error(), "repeats key") {
			t.Errorf("%s twice: %s: err %v, want a repeated key", c.name, c.twice, err)
		}
	}
	if vs, err := DecodeJSONs([]byte(`[{"t":"s","s":"x","z":1,"z":2}]`)); err != nil || len(vs) != 1 || !Equal(vs[0], Str("x")) {
		t.Errorf("a repeated unknown key: %v, %v", vs, err)
	}
}

// TestJSONSlices: EncodeJSONs writes what json.Marshal writes for the list
// of oracle forms, and DecodeJSONs reads it back; null and no text read as
// no values, as encoding/json reads them into a nil list.
func TestJSONSlices(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		vals := make([]Value, rng.Intn(5))
		for j := range vals {
			vals[j] = genValue(rng, 3)
		}
		ws := make([]JSONValue, len(vals))
		for j, v := range vals {
			ws[j], _ = EncodeJSON(v)
		}
		want, _ := json.Marshal(ws)
		got, err := EncodeJSONs(vals)
		if err != nil || string(dropNegZero(got)) != string(want) {
			t.Fatalf("case %d: EncodeJSONs %s, %v; json.Marshal %s", i, got, err, want)
		}
		back, err := DecodeJSONs(got)
		if err != nil || len(back) != len(vals) {
			t.Fatalf("case %d: DecodeJSONs(%s) = %v, %v", i, got, back, err)
		}
		for j := range vals {
			if !Equal(vals[j], back[j]) {
				t.Fatalf("case %d element %d: %s != %s", i, j, vals[j], back[j])
			}
		}
	}
	for _, none := range []string{"", "null", "[]", " [ ] "} {
		if vs, err := DecodeJSONs([]byte(none)); err != nil || len(vs) != 0 {
			t.Errorf("DecodeJSONs(%q) = %v, %v; want no values", none, vs, err)
		}
	}
	for _, bad := range []string{`[{"t":"zz"}]`, `[{"t":"i","s":"x"}]`, `[1]`, `{}`, `[]x`, `[`, `nul`} {
		if _, err := DecodeJSONs([]byte(bad)); err == nil {
			t.Errorf("DecodeJSONs(%q) must fail", bad)
		}
	}
	if _, err := EncodeJSONs([]Value{Int(1), Float(math.NaN())}); err == nil {
		t.Error("a NaN element must fail")
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
// exactly the bytes json.Marshal writes for EncodeJSON's form (but for a
// negative zero's "f":-0, see dropNegZero), fails exactly where it fails,
// and JSONReader.Value reads the text back to the value encoding/json reads
// from it.
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
		if string(dropNegZero(got)) != string(want) {
			t.Fatalf("%s:\n got %s\nwant %s", v, got, want)
		}
		var w2 JSONValue
		json.Unmarshal(got, &w2)
		sent, _ := DecodeJSON(w2) // v, but with invalid UTF-8 as U+FFFD
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

// TestTupleArenaAllocsPer: the tuples read from one text, and a list Keep
// copies, share one allocation sized by the forms left in the text; each
// tuple is capped, so appending to one never reaches its neighbour, and
// Reset starts the next text on an arena of its own.
func TestTupleArenaAllocsPer(t *testing.T) {
	const k = 10
	var want []Value
	for i := 0; i < k; i++ {
		want = append(want, Tuple{Int(i), Int(i + 1)}) // small ints box without allocating
	}
	text, err := AppendJSONs(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	var r JSONReader
	var list [k]Value
	var kept []Value
	read := func() {
		r.Reset(text)
		vs := list[:0]
		for more := r.Open('['); more; more = r.More(']') {
			v, err := r.Value()
			if err != nil {
				t.Fatal(err)
			}
			vs = append(vs, v)
		}
		kept = r.Keep(vs)
	}
	// One arena, and a slice header per tuple as it becomes a Value;
	// with an array per tuple it was 2k.
	if n := testing.AllocsPerRun(100, read); n != k+1 {
		t.Errorf("reading %d tuples allocates %v times, want %d", k, n, k+1)
	}
	for i := range want {
		if !Equal(kept[i], want[i]) {
			t.Fatalf("value %d = %v, want %v", i, kept[i], want[i])
		}
	}
	first := kept[0].(Tuple)
	_ = append(first, Int(99))
	if !Equal(kept[1], want[1]) {
		t.Errorf("appending to one tuple changed its neighbour: %v", kept[1])
	}
	before := &kept[0]
	read()
	if &kept[0] == before || !Equal(first, want[0]) {
		t.Error("the next text reused the arena of the last")
	}

	// Text the form count misses, spaced as encoding/json may space it,
	// still fills its arenas by doubling, in a few allocations.
	spaced := bytes.ReplaceAll(text, []byte(`{"t":`), []byte(`{ "t" :`))
	var r2 JSONReader
	n := testing.AllocsPerRun(100, func() {
		r2.Reset(spaced)
		for more := r2.Open('['); more; more = r2.More(']') {
			if _, err := r2.Value(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if n > k+4 {
		t.Errorf("reading %d spaced tuples allocates %v times, want at most %d", k, n, k+4)
	}
}
