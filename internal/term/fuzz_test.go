package term

import (
	"encoding/json"
	"testing"
)

// FuzzDecodeJSON: arbitrary JSON must never panic the value decoder, and
// anything it accepts must re-encode and decode to an equal value. The
// hand-written reader is held to encoding/json + DecodeJSON: whatever it
// accepts, they accept as an equal value (it may reject more: a repeated
// key, a null; keys differing only in case are the documented divergence),
// and what AppendJSON writes for that value is what
// json.Marshal writes (but for a negative zero's "f":-0, see dropNegZero).
func FuzzDecodeJSON(f *testing.F) {
	for _, s := range []string{
		`{"t":"s","s":"x"}`,
		`{"t":"i","s":"42"}`,
		`{"t":"f","f":2.5}`,
		`{"t":"b","b":true}`,
		`{"t":"tu","l":[{"t":"i","s":"1"}]}`,
		`{"t":"r","r":[{"n":"a","v":{"t":"s","s":"y"}}]}`,
		`{"t":"zz"}`,
		`{"t":"i","s":"notanint"}`,
		`{}`,
		`{"t":"tu","l":[{"t":"tu","l":[{"t":"tu","l":[]}]}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var r JSONReader
		r.Reset(raw)
		hv, herr := r.Value()
		handOK := herr == nil && r.End() == nil

		// Where a key matches a field only case-insensitively, encoding/json
		// and the hand reader part ways by design.
		var tree any
		folded := json.Unmarshal(raw, &tree) == nil &&
			foldedKey(tree, "t", "s", "f", "b", "l", "r", "n", "v")
		var w JSONValue
		if err := json.Unmarshal(raw, &w); err != nil {
			if handOK && !folded {
				t.Fatalf("hand reader accepted %q as %s; encoding/json: %v", raw, hv, err)
			}
			return
		}
		v, err := DecodeJSON(w)
		if err != nil {
			if handOK && !folded {
				t.Fatalf("hand reader accepted %q as %s; DecodeJSON: %v", raw, hv, err)
			}
			return
		}
		if handOK && !folded && !Equal(hv, v) {
			t.Fatalf("%q: hand reader %s, encoding/json %s", raw, hv, v)
		}
		w2, err := EncodeJSON(v)
		if err != nil {
			t.Fatalf("decoded %s but cannot re-encode: %v", raw, err)
		}
		v2, err := DecodeJSON(w2)
		if err != nil {
			t.Fatalf("re-encoded form does not decode: %v", err)
		}
		if !Equal(v, v2) {
			t.Fatalf("round trip changed value: %s -> %s", v, v2)
		}
		text, err := AppendJSON(nil, v)
		want, _ := json.Marshal(w2)
		if err != nil || string(dropNegZero(text)) != string(want) {
			t.Fatalf("%s: AppendJSON %s, %v; json.Marshal %s", v, text, err, want)
		}
	})
}
