package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// tagsOf builds fixture tags the way a span holds them: sorted by key.
func tagsOf(m map[string]string) Tags {
	var t Tags
	for k, v := range m {
		t = t.set(k, v)
	}
	return t
}

func sampleSubtree() SpanData {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	return SpanData{
		Name:   "serve avis:actors",
		Start:  ms(10),
		End:    ms(250),
		Tags:   tagsOf(map[string]string{"node": "node-b"}),
		Actual: &Cost{TFirst: ms(40), TAll: ms(240), Card: 9},
		Children: []SpanData{
			{
				Name:  "call avis:actors('rope')",
				Start: ms(12),
				End:   ms(248),
				Tags:  tagsOf(map[string]string{"route": "cim", "cim": "exact"}),
				Est:   &Cost{TFirst: ms(1800), TAll: ms(2000), Card: 9},
				Children: []SpanData{
					{Name: "fetch", Start: ms(13), End: ms(247)},
				},
			},
		},
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	want := sampleSubtree()
	b, err := AppendSpanJSON(nil, want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := DecodeSpanJSON(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip drifted:\n got %+v\nwant %+v", got, want)
	}
}

func TestDecodeSpanJSONRejections(t *testing.T) {
	deep := SpanData{Name: "root"}
	node := &deep
	for i := 0; i <= MaxSpanDepth; i++ {
		node.Children = []SpanData{{Name: "child"}}
		node = &node.Children[0]
	}
	wide := SpanData{Name: "root"}
	for i := 0; i < MaxSpanNodes; i++ {
		wide.Children = append(wide.Children, SpanData{Name: "c"})
	}
	mustJSON := func(d SpanData) []byte {
		b, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"garbage", []byte("{not json"), "span subtree"},
		{"wrong shape", []byte(`[1, 2, 3]`), "span subtree"},
		{"unnamed root", []byte(`{"start": 0, "end": 5}`), "unnamed"},
		{"unnamed child", []byte(`{"name": "r", "children": [{"start": 0}]}`), "unnamed"},
		{"negative extent", []byte(`{"name": "r", "start": 10, "end": 3}`), "ends before it starts"},
		{"too deep", mustJSON(deep), "deeper than"},
		{"too many nodes", mustJSON(wide), "larger than"},
		{"repeated children", []byte(`{"name": "r", "children": [], "children": null}`), "repeats key"},
		{"repeated cost key", []byte(`{"name": "r", "est": {"TAll": 1, "TAll": 2}}`), "repeats key"},
	}
	for _, tc := range cases {
		d, err := DecodeSpanJSON(tc.in)
		if err == nil {
			t.Errorf("%s: decoded without error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
		if !reflect.DeepEqual(d, SpanData{}) {
			t.Errorf("%s: rejected decode returned non-zero SpanData %+v", tc.name, d)
		}
	}
}

func TestTruncateSpanJSON(t *testing.T) {
	d := sampleSubtree()
	full, err := AppendSpanJSON(nil, d)
	if err != nil {
		t.Fatal(err)
	}

	// A generous (and an unlimited) budget ships the tree untouched.
	for _, budget := range []int{len(full), len(full) * 2, 0, -1} {
		b, truncated, ok := AppendSpanJSONWithin(nil, d, budget)
		if !ok || truncated {
			t.Fatalf("budget %d: ok=%v truncated=%v, want untouched", budget, ok, truncated)
		}
		if string(b) != string(full) {
			t.Fatalf("budget %d rewrote the encoding", budget)
		}
	}

	// A tight budget prunes deepest-first and tags the shipped root. The
	// budget counts only what is appended.
	const prefix = `{"trace":`
	b, truncated, ok := AppendSpanJSONWithin([]byte(prefix), d, len(full)-1)
	if !ok || !truncated {
		t.Fatalf("tight budget: ok=%v truncated=%v, want pruned", ok, truncated)
	}
	if !strings.HasPrefix(string(b), prefix) {
		t.Fatalf("appended encoding lost its prefix: %s", b)
	}
	if b = b[len(prefix):]; len(b) >= len(full) {
		t.Fatalf("pruned encoding (%d bytes) not smaller than full (%d)", len(b), len(full))
	}
	got, err := DecodeSpanJSON(b)
	if err != nil {
		t.Fatalf("pruned output does not decode: %v", err)
	}
	if got.Tag(TruncatedTag) != "1" {
		t.Errorf("pruned root not tagged %s=1: %v", TruncatedTag, got.Tags)
	}
	if got.Name != d.Name || got.Actual == nil {
		t.Errorf("pruning damaged the root: %+v", got)
	}
	// The original is untouched: pruning copies before tagging.
	if _, tagged := d.Tags.Lookup(TruncatedTag); tagged {
		t.Error("AppendSpanJSONWithin mutated its input's tags")
	}

	// Even the root alone over budget: ok=false, nothing to ship.
	if b, _, ok := AppendSpanJSONWithin([]byte(prefix), d, 10); ok || string(b) != prefix {
		t.Errorf("10-byte budget: ok=%v, appended %q", ok, b)
	}
}

func TestRebaseSpan(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	d, got := sampleSubtree(), sampleSubtree()
	RebaseSpan(&got, ms(1000))
	if got.Start != ms(1000) {
		t.Fatalf("root start %v, want 1s", got.Start)
	}
	if got.Duration() != d.Duration() {
		t.Errorf("rebasing changed the root extent: %v vs %v", got.Duration(), d.Duration())
	}
	// Children shift by the same offset, preserving relative position.
	wantChildStart := d.Children[0].Start + (ms(1000) - d.Start)
	if got.Children[0].Start != wantChildStart {
		t.Errorf("child start %v, want %v", got.Children[0].Start, wantChildStart)
	}
	if got.Children[0].Children[0].End-got.Children[0].Children[0].Start !=
		d.Children[0].Children[0].End-d.Children[0].Children[0].Start {
		t.Error("grandchild extent changed under rebase")
	}
}

// validateSpan checks a decoded tree against DecodeSpanJSON's documented
// bounds, after the fact, the way the decoder checked encoding/json's
// result before it read spans itself.
func validateSpan(d SpanData, depth int, nodes *int) error {
	if depth > MaxSpanDepth {
		return fmt.Errorf("span subtree deeper than %d", MaxSpanDepth)
	}
	*nodes++
	if *nodes > MaxSpanNodes {
		return fmt.Errorf("span subtree larger than %d nodes", MaxSpanNodes)
	}
	if d.Name == "" {
		return errors.New("span subtree contains an unnamed span")
	}
	if d.End < d.Start {
		return fmt.Errorf("span %q ends before it starts", d.Name)
	}
	for _, c := range d.Children {
		if err := validateSpan(c, depth+1, nodes); err != nil {
			return err
		}
	}
	return nil
}

// FuzzDecodeSpanJSON asserts the decoder's contract on arbitrary bytes:
// never panic, never accept a subtree that violates the documented
// bounds, and round-trip anything it does accept.
func FuzzDecodeSpanJSON(f *testing.F) {
	seed := sampleSubtree()
	if b, err := AppendSpanJSON(nil, seed); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"name": "root", "start": 0, "end": 1}`))
	f.Add([]byte(`{"name": "r", "children": [{"name": "c", "tags": {"truncated": "1"}}]}`))
	f.Add([]byte(`{"start": 5}`))
	f.Add([]byte(`{"name": "r", "start": 9, "end": 2}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeSpanJSON(data)
		if err != nil {
			if !reflect.DeepEqual(d, SpanData{}) {
				t.Fatalf("error path returned non-zero SpanData: %+v", d)
			}
			return
		}
		nodes := 0
		if verr := validateSpan(d, 0, &nodes); verr != nil {
			t.Fatalf("accepted subtree fails its own validation: %v", verr)
		}
		b, err := AppendSpanJSON(nil, d)
		if err != nil {
			t.Fatalf("accepted subtree does not re-encode: %v", err)
		}
		if _, err := DecodeSpanJSON(b); err != nil {
			t.Fatalf("re-encoded subtree does not decode: %v", err)
		}
	})
}

// oracleSpan is SpanData as encoding/json read and wrote it before the
// span codec was written by hand: tags go through a map, decoded afresh
// for every tags key the way Tags.UnmarshalJSON decoded them. It shares
// no code with the codec.
type oracleSpan struct {
	Name     string        `json:"name"`
	Start    time.Duration `json:"start"`
	End      time.Duration `json:"end"`
	Tags     oracleTags    `json:"tags,omitempty"`
	Est      *Cost         `json:"est,omitempty"`
	Actual   *Cost         `json:"actual,omitempty"`
	Children []oracleSpan  `json:"children,omitempty"`
}

// oracleTags keeps the tags a slice, as SpanData does.
type oracleTags []Tag

func (t *oracleTags) UnmarshalJSON(b []byte) error {
	var m map[string]string
	if err := json.Unmarshal(b, &m); err != nil || m == nil {
		return err
	}
	out := oracleTags{}
	for k, v := range m {
		out = append(out, Tag{k, v})
	}
	slices.SortFunc(out, func(a, b Tag) int { return strings.Compare(a.K, b.K) })
	*t = out
	return nil
}

func (t oracleTags) MarshalJSON() ([]byte, error) {
	if t == nil {
		return []byte("null"), nil
	}
	m := make(map[string]string, len(t))
	for _, kv := range t {
		m[kv.K] = kv.V
	}
	return json.Marshal(m)
}

// spanData converts o, keeping nil apart from empty.
func (o oracleSpan) spanData() SpanData {
	d := SpanData{Name: o.Name, Start: o.Start, End: o.End, Est: o.Est, Actual: o.Actual}
	if o.Tags != nil {
		d.Tags = append(Tags{}, o.Tags...)
	}
	if o.Children != nil {
		d.Children = make([]SpanData, len(o.Children))
		for i, c := range o.Children {
			d.Children[i] = c.spanData()
		}
	}
	return d
}

// members returns a JSON object's keys, repeats included, and their raw
// values; ok is false when raw is not an object.
func members(raw []byte) (keys []string, vals []json.RawMessage, ok bool) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, nil, false
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, nil, false
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, nil, false
		}
		keys, vals = append(keys, tok.(string)), append(vals, v)
	}
	return keys, vals, true
}

// divergent reports whether raw, read as a span tree, has a span or cost
// object that repeats one of its keys or spells one in another case: there
// the codec rejects or skips what encoding/json merges or matches, by
// design.
func divergent(raw []byte, known []string) bool {
	keys, vals, ok := members(raw)
	if !ok {
		return false
	}
	seen := map[string]bool{}
	for i, k := range keys {
		for _, n := range known {
			if !strings.EqualFold(k, n) {
				continue
			}
			if k != n || seen[k] {
				return true
			}
			seen[k] = true
			switch k {
			case "est", "actual":
				if divergent(vals[i], costKeys[:]) {
					return true
				}
			case "children":
				var kids []json.RawMessage
				json.Unmarshal(vals[i], &kids)
				for _, kid := range kids {
					if divergent(kid, spanKeys[:]) {
						return true
					}
				}
			}
		}
	}
	return false
}

// FuzzSpanCodec holds the span codec to encoding/json in both directions,
// the way FuzzFrameCodec holds the frame codec: whatever SpanData
// encoding/json reads from the input, AppendSpanJSON writes the bytes
// json.Marshal writes for it; and DecodeSpanJSON accepts exactly what
// json.Unmarshal followed by validateSpan accepts, yielding the same
// SpanData, except on a repeated or differently-cased span or cost key,
// the decoder's documented divergences.
func FuzzSpanCodec(f *testing.F) {
	if b, err := AppendSpanJSON(nil, sampleSubtree()); err == nil {
		f.Add(b)
	}
	for _, s := range []string{
		`{"name":"r","start":1,"end":2,"tags":{"b":"1","a":null,"b":"3"},"est":{"TFirst":1,"TAll":2,"Card":1e-7}}`,
		`{"NAME":"r","Tags":{},"children":[{"name":"c","actual":{"card":2.5e21}}],"x":[[{}]]}`,
		`{"name":"r","children":[{"name":"c"}],"children":[{"start":5}]}`,
		`{"name":"r","children":[{"name":"a"},{"name":"b"},{"name":"c"}],"children":[{"start":1,"end":1}],"children":[null,{"end":2}]}`,
		`{"name":"r","children":[{"name":""},{"name":""}],"Children":[{"name":"x","children":[{}]},{"name":"y"}],"children":[{"children":[{"name":"z"}]},null]}`,
		`{"name":"r","children":[{"name":"a"}],"children":[],"children":null}`,
		`{"name":"r","children":null,"tags":null,"est":null,"est":{"TAll":3}}`,
		`{"name":"<&> \ud800","end":-0,"children":[]}`,
		`{"name":"r","tags":{"a":"1"},"tags":{"b":"2"}}`,
		`{"name":"r","children":[null]}`,
		`{"name":"r","start":1.5}`,
		`null`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeSpanJSON(data)
		var ref oracleSpan
		refErr := json.Unmarshal(data, &ref)
		if refErr == nil {
			// json.Marshal writes what it read; AppendSpanJSON must too.
			want, wantErr := json.Marshal(ref)
			enc, encErr := AppendSpanJSON(nil, ref.spanData())
			if (encErr != nil) != (wantErr != nil) || string(enc) != string(want) {
				t.Fatalf("AppendSpanJSON = %s, %v; json.Marshal = %s, %v", enc, encErr, want, wantErr)
			}
			nodes := 0
			refErr = validateSpan(ref.spanData(), 0, &nodes)
		}
		if divergent(data, spanKeys[:]) {
			return
		}
		if (err == nil) != (refErr == nil) {
			t.Fatalf("DecodeSpanJSON err = %v, encoding/json + validateSpan err = %v", err, refErr)
		}
		if err == nil && !reflect.DeepEqual(got, ref.spanData()) {
			t.Fatalf("DecodeSpanJSON = %+v, encoding/json = %+v", got, ref.spanData())
		}
	})
}

// TestDecodeSpanJSONAllocsPer gates what decoding one stitched trace
// allocates: the payload is sampleSubtree's, three spans.
func TestDecodeSpanJSONAllocsPer(t *testing.T) {
	b, err := AppendSpanJSON(nil, sampleSubtree())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeSpanJSON(b); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("DecodeSpanJSON: %.0f allocs", allocs)
	// Measured 4 allocs (go1.24, linux/amd64): the node, tag and cost
	// arrays and the one string. 20 % more rounds down to the same bound.
	// The race detector drops pooled scratch at random.
	if allocs > 4 && !raceEnabled {
		t.Errorf("DecodeSpanJSON allocates %.0f times, want <= 4", allocs)
	}
}

// TestDecodeSpanJSONRejectsHostileTreesEarly: a peer's subtree past the
// node limit is rejected where the limit is crossed, not after the whole
// payload has been built. Both payloads fit the client's default 1 MiB
// foreign-subtree budget and hold 60 000 siblings.
func TestDecodeSpanJSONRejectsHostileTreesEarly(t *testing.T) {
	const siblings = 60000
	for _, child := range []string{`{"name":""}`, `{"name":"c"}`} {
		b := []byte(`{"name":"r","children":[`)
		for i := 0; i < siblings; i++ {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, child...)
		}
		b = append(b, "]}"...)
		if len(b) > 1<<20 {
			t.Fatalf("payload is %d bytes, over 1 MiB", len(b))
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := DecodeSpanJSON(b); err == nil {
				t.Fatalf("%s × %d accepted", child, siblings)
			}
		})
		t.Logf("%s × %d: %.0f allocs", child, siblings, allocs)
		if allocs > 100 {
			t.Errorf("%s × %d: %.0f allocs before rejecting, want <= 100", child, siblings, allocs)
		}
	}
}
