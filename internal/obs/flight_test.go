package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func span(name string, dur time.Duration) SpanData {
	return SpanData{Name: name, Start: 0, End: dur}
}

func TestFlightRecorderThreshold(t *testing.T) {
	f := NewFlightRecorder(8, 100*time.Millisecond)
	f.Record(span("fast", 10*time.Millisecond))
	f.Record(span("slow", 250*time.Millisecond))
	f.Record(span("exactly", 100*time.Millisecond)) // at-threshold is retained
	recs := f.Records()
	if len(recs) != 2 {
		t.Fatalf("retained = %d, want 2", len(recs))
	}
	if recs[0].Name != "exactly" || recs[1].Name != "slow" {
		t.Errorf("records (newest first) = %v", []string{recs[0].Name, recs[1].Name})
	}
	if recs[1].DurationMS != 250 {
		t.Errorf("duration_ms = %g, want 250", recs[1].DurationMS)
	}
	if offered, skipped := f.Stats(); offered != 3 || skipped != 1 {
		t.Errorf("stats = %d offered, %d skipped", offered, skipped)
	}
	f.SetThreshold(0)
	f.Record(span("fast2", time.Millisecond))
	if len(f.Records()) != 3 {
		t.Error("threshold 0 should keep everything")
	}
}

// TestFlightThresholdBeforeSnapshot: a query under the slow-query
// threshold is counted and skipped before its tree is snapshotted, so
// publishing it allocates nothing.
func TestFlightThresholdBeforeSnapshot(t *testing.T) {
	f := NewFlightRecorder(8, time.Second)
	tr := NewTracer(f)
	root := tr.StartQuery("?- fast.", 0)
	root.Child("call d:f()", 0).End(time.Millisecond)
	root.End(2 * time.Millisecond)
	if n := testing.AllocsPerRun(100, func() { tr.publish(root) }); n != 0 {
		t.Errorf("publishing a fast tree allocates %v times, want 0", n)
	}
	if offered, skipped := f.Stats(); offered != 102 || skipped != 102 || len(f.Records()) != 0 {
		t.Errorf("stats = %d offered, %d skipped, %d kept; want 102, 102, 0", offered, skipped, len(f.Records()))
	}
}

func TestFlightRecorderEvictionOldestFirst(t *testing.T) {
	f := NewFlightRecorder(3, 0)
	for i := 0; i < 5; i++ {
		f.Record(span(fmt.Sprintf("q%d", i), time.Duration(i+1)*time.Millisecond))
	}
	recs := f.Records()
	if len(recs) != 3 {
		t.Fatalf("retained = %d, want 3", len(recs))
	}
	for i, want := range []string{"q4", "q3", "q2"} {
		if recs[i].Name != want {
			t.Errorf("records[%d] = %s, want %s", i, recs[i].Name, want)
		}
	}
	// Sequence numbers keep counting across evictions, so a JSONL reader
	// can tell records were dropped.
	if recs[0].Seq != 5 || recs[2].Seq != 3 {
		t.Errorf("seqs = %d..%d, want 5..3", recs[0].Seq, recs[2].Seq)
	}
}

func TestFlightRecorderJSONL(t *testing.T) {
	f := NewFlightRecorder(4, 0)
	root := span("?- q(X).", 40*time.Millisecond)
	root.Tags = tagsOf(map[string]string{"answers": "2"})
	root.Children = []SpanData{span("call avis:frames(4, 30, F)", 30*time.Millisecond)}
	f.Record(root)
	var buf bytes.Buffer
	if err := f.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("lines = %d, want 1", len(lines))
	}
	var rec FlightRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, lines[0])
	}
	if rec.Name != "?- q(X)." || rec.DurationMS != 40 {
		t.Errorf("record = %+v", rec)
	}
	if len(rec.Root.Children) != 1 || rec.Root.Children[0].Name != "call avis:frames(4, 30, F)" {
		t.Errorf("span tree not round-tripped: %+v", rec.Root)
	}
}

// TestFlightRecorderNilSafety: nil recorder and the observer wiring.
func TestFlightRecorderNilSafety(t *testing.T) {
	var f *FlightRecorder
	f.Record(span("q", time.Millisecond))
	f.SetThreshold(time.Second)
	if recs := f.Records(); recs != nil {
		t.Errorf("nil recorder records = %v", recs)
	}
	if err := f.WriteJSONL(&bytes.Buffer{}); err != nil {
		t.Errorf("nil recorder WriteJSONL = %v", err)
	}
	if offered, skipped := f.Stats(); offered != 0 || skipped != 0 {
		t.Error("nil recorder has stats")
	}
}

// TestObserverFeedsFlightRecorder: ending a root query span must land
// its snapshot in the observer's flight recorder.
func TestObserverFeedsFlightRecorder(t *testing.T) {
	o := NewObserver()
	s := o.StartQuery("?- q(X).", 0)
	c := s.Child("call d:f(1)", time.Millisecond)
	c.End(5 * time.Millisecond)
	s.End(10 * time.Millisecond)
	recs := o.Flight.Records()
	if len(recs) != 1 || recs[0].Name != "?- q(X)." || len(recs[0].Root.Children) != 1 {
		t.Fatalf("flight records = %+v", recs)
	}
}

// TestFlightJSONLMatchesEncoder: the hand-written JSONL writer emits the
// bytes json.Encoder writes for each FlightRecord, oldest first.
func TestFlightJSONLMatchesEncoder(t *testing.T) {
	f := NewFlightRecorder(3, 0)
	for i, name := range []string{"?- q(X).", "<a & b>", "?- r(\" \xff\", 1e-7).", "last"} {
		root := span(name, time.Duration(i*1234567+1))
		root.Start = time.Duration(i)
		root.Tags = tagsOf(map[string]string{"answers": fmt.Sprint(i), "<tag>": "v&w"})
		root.Est = &Cost{TFirst: time.Millisecond, TAll: 3 * time.Millisecond, Card: 1.0 / 3}
		root.Children = []SpanData{sampleSubtree(), {Name: "leaf", Actual: &Cost{Card: 2.5e21}}}
		f.Record(root)
	}
	var got, want bytes.Buffer
	if err := f.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	enc := json.NewEncoder(&want)
	recs := f.Records()
	for i := len(recs) - 1; i >= 0; i-- {
		if err := enc.Encode(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got.String() != want.String() {
		t.Errorf("WriteJSONL =\n%s\njson.Encoder =\n%s", got.String(), want.String())
	}
	if n := strings.Count(got.String(), "\n"); n != 3 {
		t.Errorf("wrote %d lines, want the 3 retained records", n)
	}
}
