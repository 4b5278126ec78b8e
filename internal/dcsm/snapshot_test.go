package dcsm

import (
	"bytes"
	"math"
	"os"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
)

// goldenStats is the state testdata/stats_v1.json holds, written by the
// reflective codec snapshots used before term.AppendJSON: records whose
// arguments cover every value kind, the int64 extremes, escapes and floats
// on either side of the 'e' format's cutoffs, and summary tables over them.
func goldenStats() *DB {
	db := New(DefaultConfig(), nil)
	rec := term.NewRecord(
		term.Field{Name: "name", Val: term.Str("<a&b>")},
		term.Field{Name: "pos", Val: term.Tuple{term.Float(1.5), term.Tuple{}}},
	)
	argSets := [][]term.Value{
		{term.Str("<a&b> \"q\"\n\x00é"), term.Int(math.MinInt64)},
		{term.Str(""), term.Int(math.MaxInt64)},
		{term.Float(1e21), term.Float(1e-7)},
		{term.Bool(true), term.Bool(false)},
		{term.Tuple{}, term.Tuple{term.Tuple{term.Int(1), term.Str("x")}, term.Tuple{}}},
		{rec, term.NewRecord()},
		{term.Float(0), term.Float(-2.5e-8)},
	}
	for i, args := range argSets {
		db.observeRecord(Record{
			Call: domain.Call{Domain: "d", Function: "f", Args: args},
			Cost: domain.CostVector{
				TFirst: time.Duration(i+1) * time.Millisecond, TAll: time.Duration(10*i+5) * time.Millisecond,
				Card: float64(i) + 0.25,
			},
			HasTf: true, HasTa: i%2 == 0, HasCard: i%3 != 0,
			RecordedAt: time.Duration(i) * time.Second,
		})
	}
	db.observeRecord(Record{Call: domain.Call{Domain: "e", Function: "g"}, Cost: domain.CostVector{TAll: time.Second}, HasTa: true})
	for _, dims := range [][]int{{0, 1}, {0}, {}} {
		if _, err := db.Summarize("d", "f", 2, dims); err != nil {
			panic(err)
		}
	}
	return db
}

func saveBytes(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStatsSnapshotGolden: snapshot bytes do not change. The golden state
// saves to the golden, and the golden loads and saves to itself.
func TestStatsSnapshotGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/stats_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, goldenStats()); !bytes.Equal(got, golden) {
		t.Errorf("the golden state saves to\n%s\nwant\n%s", got, golden)
	}
	db := New(DefaultConfig(), nil)
	if err := db.Load(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, db); !bytes.Equal(got, golden) {
		t.Errorf("the loaded golden saves to\n%s\nwant\n%s", got, golden)
	}
}

// TestSaveSkipsRecordWithoutJSONForm: a NaN argument costs its own record
// and summary row, not the snapshot.
func TestSaveSkipsRecordWithoutJSONForm(t *testing.T) {
	db := New(DefaultConfig(), nil)
	db.Observe(meas("d", "f", []term.Value{term.Float(math.NaN())}, 10, 100, 1))
	db.Observe(meas("d", "f", sv("a"), 20, 200, 2))
	if _, err := db.SummarizeLossless("d", "f", 1); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("one unencodable record lost the snapshot: %v", err)
	}
	db2 := New(DefaultConfig(), nil)
	if err := db2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if n := len(db2.Records("d", "f", 1)); n != 1 {
		t.Errorf("loaded %d records, want the one with a JSON form", n)
	}
	cv, err := db2.Cost(domain.Pattern{Domain: "d", Function: "f", Args: []domain.PatternArg{domain.Const(term.Str("a"))}})
	if err != nil || cv.TAll != 200*time.Millisecond {
		t.Errorf("estimate after reload = %v, %v; want Ta 200ms", cv, err)
	}
}

// FuzzStatsSnapshot: Load never panics, and whatever it accepts saves to a
// fixed point: Save, Load, Save writes the same bytes again.
func FuzzStatsSnapshot(f *testing.F) {
	if golden, err := os.ReadFile("testdata/stats_v1.json"); err == nil {
		f.Add(golden)
	}
	for _, s := range []string{
		`{"version":1,"records":[{"domain":"d","function":"f","args":null},{"domain":"d","function":"f","args":[{"t":"f","f":-0}]}],"tables":[]}`,
		`{"version":1,"tables":[{"domain":"d","function":"f","arity":1,"dims":[0],"rows":[{"dims":[{"t":"s","s":"a"}],"l":2},{"dims":[{"t":"s","s":"a"}],"l":3}]}]}`,
		`{"version":1,"tables":[{"domain":"d","function":"f","arity":1,"dims":[1]}]}`,
		`{"version":1,"records":[{"args":[{"t":"zz"}]}]}`,
		`null`, `{}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		db := New(DefaultConfig(), nil)
		if db.Load(bytes.NewReader(data)) != nil {
			return
		}
		first := saveBytes(t, db)
		db2 := New(DefaultConfig(), nil)
		if err := db2.Load(bytes.NewReader(first)); err != nil {
			t.Fatalf("a saved snapshot does not load: %v\n%s", err, first)
		}
		if again := saveBytes(t, db2); !bytes.Equal(first, again) {
			t.Fatalf("Save, Load, Save is not a fixed point:\n%s\nvs\n%s", first, again)
		}
	})
}
