package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestFlightRecorderConcurrentWriteJSONL hammers the recorder with
// concurrent publishers, readers, dumpers, and threshold changes — the
// live-server shape where the tracer's publish hook fires mid-query
// while an operator curls /debug/flightrecorder. Run under -race this
// pins the locking discipline; in any mode it checks every dumped line
// is intact JSON with a positive sequence number.
func TestFlightRecorderConcurrentWriteJSONL(t *testing.T) {
	f := NewFlightRecorder(32, 0)
	const writers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				d := SpanData{
					Name:  "?- q.",
					Start: 0,
					End:   time.Duration(i) * time.Millisecond,
					Children: []SpanData{
						{Name: "call d:f", Start: 0, End: time.Duration(i) * time.Millisecond},
					},
				}
				f.Record(d)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			f.Records()
			f.Stats()
			f.SetThreshold(time.Duration(i%2) * time.Millisecond)
		}
	}()
	var dumpErr error
	var once sync.Once
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds/4; i++ {
				var buf bytes.Buffer
				if err := f.WriteJSONL(&buf); err != nil {
					once.Do(func() { dumpErr = err })
					return
				}
				sc := bufio.NewScanner(&buf)
				for sc.Scan() {
					var rec FlightRecord
					if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
						once.Do(func() { dumpErr = err })
						return
					}
					if rec.Seq <= 0 {
						once.Do(func() { dumpErr = io.ErrUnexpectedEOF })
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if dumpErr != nil {
		t.Fatalf("concurrent dump corrupted: %v", dumpErr)
	}
	if offered, _ := f.Stats(); offered != writers*rounds {
		t.Errorf("offered %d, want %d", offered, writers*rounds)
	}
}

// TestExplainFederatedGolden renders a stitched two-hop tree the way the
// remote client builds it — a local call span with the peer's serve
// subtree rebased and attached beneath it, per-hop node= tags,
// remote.wire_ms split out — alongside a degraded peer whose trace
// subtree timed out (local-only leaf, remote.trace says why), and
// compares against a golden file.
func TestExplainFederatedGolden(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := NewTracer(nil).StartQuery("?- objects_between(4, 47, O).", 0)
	root.SetTag("node", "node-a")
	root.SetTag("answers", "19")
	root.SetTag("complete", "true")
	root.SetActual(Cost{TFirst: ms(410), TAll: ms(980), Card: 19})

	// Hop A→B: traced, stitched. The peer's serve subtree itself holds a
	// hop B→C child — two mounts deep, one tree.
	c1 := root.Child("call avis:frames_to_objects('rope', 4, 47)", ms(5))
	c1.SetTag("route", "direct")
	c1.SetTag("remote", "node-b:7117")
	c1.SetTag("remote.wire_ms", "62.0")
	c1.SetActual(Cost{TFirst: ms(400), TAll: ms(890), Card: 19})
	c1.AttachForeign(&SpanData{
		Name:   "serve avis:frames_to_objects",
		Start:  ms(36),
		End:    ms(859),
		Tags:   tagsOf(map[string]string{"node": "node-b"}),
		Actual: &Cost{TFirst: ms(310), TAll: ms(823), Card: 19},
		Children: []SpanData{
			{
				Name:  "call avis:frames_to_objects('rope', 4, 47)",
				Start: ms(40),
				End:   ms(850),
				Tags: tagsOf(map[string]string{
					"route": "direct", "remote": "node-c:7117", "remote.wire_ms": "18.5",
				}),
				Children: []SpanData{
					{
						Name:   "serve avis:frames_to_objects",
						Start:  ms(55),
						End:    ms(835),
						Tags:   tagsOf(map[string]string{"node": "node-c", "truncated": "1"}),
						Actual: &Cost{TFirst: ms(290), TAll: ms(780), Card: 19},
					},
				},
			},
		},
	})
	c1.End(ms(895))

	// Degraded hop: the peer served answers but its trace subtree never
	// arrived (timeout / malformed) — the call span stays a local-only
	// leaf and remote.trace says why the subtree is missing.
	c2 := root.Child("call terrain:findrte(10, 120)", ms(900))
	c2.SetTag("route", "direct")
	c2.SetTag("remote", "node-d:7117")
	c2.SetTag("remote.trace", "malformed")
	c2.SetTag("resumed", "1")
	c2.SetActual(Cost{TFirst: ms(30), TAll: ms(75), Card: 4})
	c2.End(ms(978))

	root.End(ms(980))
	got := Explain(root.Snapshot())

	golden := filepath.Join("testdata", "explain_federated.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("federated EXPLAIN drifted from golden.\n-- got:\n%s\n-- want:\n%s", got, want)
	}
}
