package obs

import (
	"encoding/json"
	"reflect"
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
	b, err := EncodeSpanJSON(want)
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
	full, err := EncodeSpanJSON(d)
	if err != nil {
		t.Fatal(err)
	}

	// A generous (and an unlimited) budget ships the tree untouched.
	for _, budget := range []int{len(full), len(full) * 2, 0, -1} {
		b, truncated, ok := TruncateSpanJSON(d, budget)
		if !ok || truncated {
			t.Fatalf("budget %d: ok=%v truncated=%v, want untouched", budget, ok, truncated)
		}
		if string(b) != string(full) {
			t.Fatalf("budget %d rewrote the encoding", budget)
		}
	}

	// A tight budget prunes deepest-first and tags the shipped root.
	b, truncated, ok := TruncateSpanJSON(d, len(full)-1)
	if !ok || !truncated {
		t.Fatalf("tight budget: ok=%v truncated=%v, want pruned", ok, truncated)
	}
	if len(b) >= len(full) {
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
		t.Error("TruncateSpanJSON mutated its input's tags")
	}

	// Even the root alone over budget: ok=false, nothing to ship.
	if _, _, ok := TruncateSpanJSON(d, 10); ok {
		t.Error("10-byte budget reported ok")
	}
}

func TestRebaseSpan(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	d := sampleSubtree()
	got := RebaseSpan(d, ms(1000))
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
	// The input is not mutated.
	if d.Start != ms(10) {
		t.Error("RebaseSpan mutated its input")
	}
}

// FuzzDecodeSpanJSON asserts the decoder's contract on arbitrary bytes:
// never panic, never accept a subtree that violates the documented
// bounds, and round-trip anything it does accept.
func FuzzDecodeSpanJSON(f *testing.F) {
	seed := sampleSubtree()
	if b, err := EncodeSpanJSON(seed); err == nil {
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
		b, err := EncodeSpanJSON(d)
		if err != nil {
			t.Fatalf("accepted subtree does not re-encode: %v", err)
		}
		if _, err := DecodeSpanJSON(b); err != nil {
			t.Fatalf("re-encoded subtree does not decode: %v", err)
		}
	})
}
