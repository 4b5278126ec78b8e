package obs

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzTagsJSON holds Tags to the JSON of the map it replaced: for any
// keys and values — invalid UTF-8, HTML characters, quotes, repeated and
// empty keys — the same bytes out, and the same pairs back in.
func FuzzTagsJSON(f *testing.F) {
	f.Add("cim", "exact", "route", "cim", "cim", "miss")
	f.Add("", "", "a<b>&c", "\"q\"\\", "\xff\xfe", " \x00\x7f")
	f.Add("é", "\t\n", "e", "é", "E", "\x1b[0m")
	f.Fuzz(func(t *testing.T, k1, v1, k2, v2, k3, v3 string) {
		var tags Tags
		m := map[string]string{}
		for _, kv := range [][2]string{{k1, v1}, {k2, v2}, {k3, v3}} {
			tags = tags.set(kv[0], kv[1])
			m[kv[0]] = kv[1]
		}
		got, err := json.Marshal(tags)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(m)
		if string(got) != string(want) {
			t.Fatalf("Tags marshal to %s, the map to %s", got, want)
		}
		// Inside a span, under omitempty, as the wire carries them.
		gotSpan, _ := json.Marshal(SpanData{Name: "n", Tags: tags})
		wantSpan, _ := json.Marshal(refData{Name: "n", Tags: m})
		if string(gotSpan) != string(wantSpan) {
			t.Fatalf("span marshals to %s, with a map to %s", gotSpan, wantSpan)
		}
		var back Tags
		var backMap map[string]string
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatalf("Unmarshal(%s): %v", got, err)
		}
		if err := json.Unmarshal(got, &backMap); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tagsOf(backMap)) {
			t.Fatalf("Unmarshal(%s) = %q, the map holds %q", got, back, backMap)
		}
		again, _ := json.Marshal(back)
		if wantAgain, _ := json.Marshal(backMap); string(again) != string(wantAgain) {
			t.Fatalf("second trip: Tags marshal to %s, the map to %s", again, wantAgain)
		}
	})
}

// TestTagsJSONEdges: null, the empty object, duplicate keys and values of
// the wrong type behave as they did for the map.
func TestTagsJSONEdges(t *testing.T) {
	for _, tc := range []struct {
		in        string
		wantNil   bool
		wantPairs Tags
		wantErr   bool
	}{
		{in: `{"name":"n","tags":null}`, wantNil: true},
		{in: `{"name":"n"}`, wantNil: true},
		{in: `{"name":"n","tags":{}}`, wantPairs: Tags{}},
		{in: `{"name":"n","tags":{"b":"1","a":"2","b":"3"}}`, wantPairs: Tags{{"a", "2"}, {"b", "3"}}},
		{in: `{"name":"n","tags":{"a":null}}`, wantPairs: Tags{{"a", ""}}},
		{in: `{"name":"n","tags":{"a":1}}`, wantErr: true},
		{in: `{"name":"n","tags":["a"]}`, wantErr: true},
	} {
		var d SpanData
		var ref refData
		err, refErr := json.Unmarshal([]byte(tc.in), &d), json.Unmarshal([]byte(tc.in), &ref)
		if (err != nil) != tc.wantErr || (refErr != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, the map's = %v, want an error: %v", tc.in, err, refErr, tc.wantErr)
			continue
		}
		if tc.wantErr {
			continue
		}
		if (d.Tags == nil) != tc.wantNil || (ref.Tags == nil) != tc.wantNil {
			t.Errorf("%s: nil tags = %v, the map's = %v, want %v", tc.in, d.Tags == nil, ref.Tags == nil, tc.wantNil)
		}
		if !tc.wantNil && (!reflect.DeepEqual(d.Tags, tc.wantPairs) || !reflect.DeepEqual(d.Tags, append(Tags{}, tagsOf(ref.Tags)...))) {
			t.Errorf("%s: tags = %q, want %q (the map holds %q)", tc.in, d.Tags, tc.wantPairs, ref.Tags)
		}
		got, _ := json.Marshal(d)
		want, _ := json.Marshal(ref)
		if string(got) != string(want) {
			t.Errorf("%s: re-encodes as %s, with a map as %s", tc.in, got, want)
		}
	}
	if b, _ := json.Marshal(Tags(nil)); string(b) != "null" {
		t.Errorf("nil Tags marshal to %s, want null", b)
	}
}
