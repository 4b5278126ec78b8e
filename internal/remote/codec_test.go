package remote

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"hermes/internal/term"
)

// encoding/json is the frame codec's oracle: it shares no code with the
// hand-written encoder and decoder, and every test here holds them to it.
// Values are the exception: a Frame carries each one's term.AppendJSON
// text, which term's own tests hold to encoding/json.

// oracleLine is the line json.NewEncoder(w).Encode(f) writes for f with
// the given values as its args and values.
func oracleLine(f Frame, args, values []term.Value) ([]byte, error) {
	var err error
	if f.Args, err = rawValues(args); err != nil {
		return nil, err
	}
	if f.Values, err = rawValues(values); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(f)
	return buf.Bytes(), err
}

// rawValues is each value's term.AppendJSON text, as a Frame carries it.
func rawValues(vs []term.Value) ([]json.RawMessage, error) {
	var out []json.RawMessage
	for _, v := range vs {
		text, err := term.AppendJSON(nil, v)
		if err != nil {
			return nil, err
		}
		out = append(out, text)
	}
	return out, nil
}

// valuesOf reads a Frame's value texts back.
func valuesOf(raws []json.RawMessage) ([]term.Value, error) {
	out := make([]term.Value, len(raws))
	var r term.JSONReader
	for i, raw := range raws {
		r.Reset(raw)
		v, err := r.Value()
		if err == nil {
			err = r.End()
		}
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// handLine is the line the codec writes for the same frame.
func handLine(f Frame, args, values []term.Value) ([]byte, error) {
	al, err := appendValues(nil, args)
	if err != nil {
		return nil, err
	}
	vl, err := appendValues(nil, values)
	if err != nil {
		return nil, err
	}
	f.Args, f.Values = nil, nil
	return appendFrame(nil, &f, al, vl)
}

// codecKeys are every key a frame line's objects can hold: Frame's,
// FnSpec's and a term value's.
var codecKeys = append(frameKeys[:], "name", "arity", "doc", "t", "s", "f", "b", "l", "r", "n", "v")

// foldedKey reports whether a decoded JSON tree holds an object key that
// is not one of names but matches one case-insensitively: there
// encoding/json and the exact-key codec part ways by design.
func foldedKey(v any, names []string) bool {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			for _, n := range names {
				if k != n && strings.EqualFold(k, n) {
					return true
				}
			}
			if foldedKey(e, names) {
				return true
			}
		}
	case []any:
		for _, e := range x {
			if foldedKey(e, names) {
				return true
			}
		}
	}
	return false
}

// checkDecode holds decodeFrame to json.Unmarshal on one line: whatever
// the codec accepts, encoding/json decodes to the same Frame and the same
// values (the codec may reject more, and a key differing only in case is
// the documented divergence).
func checkDecode(t *testing.T, line []byte) {
	t.Helper()
	var in frameIn
	herr := decodeFrame(new(term.JSONReader), line, &in)
	var jf Frame
	jerr := json.Unmarshal(line, &jf)
	var tree any
	if herr != nil || json.Unmarshal(line, &tree) == nil && foldedKey(tree, codecKeys) {
		return
	}
	if jerr != nil {
		t.Fatalf("codec accepted %q; encoding/json: %v", line, jerr)
	}
	args, aerr := valuesOf(jf.Args)
	values, verr := valuesOf(jf.Values)
	if in.badValue != nil {
		if aerr == nil && verr == nil {
			t.Fatalf("%q: codec rejects a value (%v) that reads on its own", line, in.badValue)
		}
		return
	}
	if aerr != nil || verr != nil {
		t.Fatalf("%q: codec accepts values that do not read on their own: %v %v", line, aerr, verr)
	}
	if !sameValues(in.args, args) || !sameValues(in.values, values) {
		t.Fatalf("%q: codec values %v %v, encoding/json %v %v", line, in.args, in.values, args, values)
	}
	jf.Args, jf.Values = nil, nil
	if !reflect.DeepEqual(in.Frame, jf) {
		t.Fatalf("%q:\ncodec         %+v\nencoding/json %+v", line, in.Frame, jf)
	}
}

func sameValues(a, b []term.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !term.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// checkEncode holds appendFrame to json.Encoder on one frame: the same
// bytes, or both fail. A line it writes must decode back.
func checkEncode(t *testing.T, f Frame, args, values []term.Value) {
	t.Helper()
	want, werr := oracleLine(f, args, values)
	got, gerr := handLine(f, args, values)
	if (werr != nil) != (gerr != nil) {
		t.Fatalf("%+v: codec err %v, encoding/json err %v", f, gerr, werr)
	}
	if werr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%+v:\ncodec         %s\nencoding/json %s", f, got, want)
	}
	var in frameIn
	if err := decodeFrame(new(term.JSONReader), want, &in); err != nil || in.badValue != nil {
		t.Fatalf("codec cannot decode the line encoding/json wrote: %s: %v %v", want, err, in.badValue)
	}
	checkDecode(t, want)
}

// frameCorpus is a frame of every op the sessions send, plus the fields
// whose encoding is delicate.
func frameCorpus() []Frame {
	return []Frame{
		{Op: OpHello, Versions: []int{ProtocolVersion, 1}, HeartbeatMS: 10000, Caps: []string{CapTrace, CapDebug}},
		{Op: OpHello, Version: ProtocolVersion, Caps: []string{CapTrace}},
		{Op: OpHello, Err: "unsupported protocol versions [99] (server speaks 2)"},
		{Op: OpCall, ID: 7, Domain: "avis", Function: "frames_to_objects", TraceID: "cafe0123cafe0123", Depth: 2},
		{Op: OpCall, ID: math.MaxUint64, Domain: "d<&>", Function: "f\u2028"},
		{Op: OpAnswers, ID: 3, Done: true},
		{Op: OpError, ID: 4, Err: "source \"x\" exploded\n\t<at> & \xff", Unavailable: true},
		{Op: OpError, Done: true, Err: `first line has op "call", want hello`},
		{Op: OpCancel, ID: 9},
		{Op: OpHeartbeat},
		{Op: OpFunctions, ID: 2, Done: true, Functions: map[string][]FnSpec{
			"b": {{Name: "gen", Arity: 1, Doc: "generates <n>"}, {Name: "zero"}},
			"a": nil, "c": {}, "": {{Name: "\x00"}}}},
		{Op: OpTrace, ID: 5, Trace: json.RawMessage(" {\"name\" : \"serve a:b\", \"tags\": {\"k\":\"<v>\u2028\"},\n \"kids\" : [ 1 , -2.5e-7, true, null ] } ")},
		{Op: OpDebug, ID: 6, Done: true, Debug: json.RawMessage(`"\u00e9\ud83d\ude00"`)},
		{Op: OpTrace, ID: 5, Trace: json.RawMessage(`{"unterminated": `)},
		{Op: OpDebug, Debug: json.RawMessage(`{} {}`)},
		{Op: "sentinel"},
		{},
	}
}

func TestFrameCodecMatchesEncodingJSON(t *testing.T) {
	values := []term.Value{term.Int(1), term.Str("<tag>"), term.Tuple{term.Float(1e21), term.Float(-0.0)},
		term.NewRecord(term.Field{Name: "name", Val: term.Str("\u2029")}, term.Field{Name: "ok", Val: term.Bool(true)})}
	for _, f := range frameCorpus() {
		checkEncode(t, f, nil, nil)
		checkEncode(t, f, values[:1], values)
	}
	// A value the wire cannot carry fails both encoders.
	for _, bad := range []term.Value{term.Float(math.NaN()), term.Tuple{term.Float(math.Inf(1))}} {
		checkEncode(t, Frame{Op: OpAnswers, ID: 1}, nil, []term.Value{term.Int(1), bad})
	}
}

// FuzzFrameCodec holds the codec to encoding/json both ways. Decode: every
// line either decodes to the Frame json.Unmarshal decodes, or fails.
// Encode: every Frame json.Unmarshal makes of a line encodes to the bytes
// json.Encoder writes for it (or both fail), and that line decodes back.
func FuzzFrameCodec(f *testing.F) {
	for _, fr := range frameCorpus() {
		if line, err := oracleLine(fr, nil, []term.Value{term.Int(1), term.Str("x")}); err == nil {
			f.Add(line)
		}
	}
	for _, s := range []string{
		`{"op":"answers","id":1,"values":[{"t":"tu","l":[{"t":"i","s":"1"},{"t":"f","f":-0}]},{"t":"r","r":[{"n":"a","v":{"t":"b","b":true}}]}],"done":true}`,
		`{"op":"call","args":[{"t":"zz"}],"id":1}`,
		`{"op":"call","op":"cancel"}`,
		`{"OP":"call","Id":3,"iD":4}`,
		`{"op":"x","trace":null,"versions":null}`,
		`{"op":"x","functions":{"d":null,"e":[],"f":[{"name":"g","arity":2,"doc":"","extra":[1,{"a":null}]}]}}`,
		`{"op":"\u0061nswers","id":1e2}`,
		`{"op":"\ud800\u0041"} `,
		`[]`, `null`, `{}`, `{"op":"x"}{}`, "{\"op\":\"x\"}\n",
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		checkDecode(t, line)
		var jf Frame
		if json.Unmarshal(line, &jf) != nil {
			return
		}
		args, aerr := valuesOf(jf.Args)
		values, verr := valuesOf(jf.Values)
		if aerr != nil || verr != nil {
			return
		}
		checkEncode(t, jf, args, values)
	})
}
