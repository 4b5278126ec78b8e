package cim

import (
	"bytes"
	"io"
	"math"
	"os"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/term"
)

// goldenCache is the state testdata/cache_v2.json holds, written by the
// reflective codec snapshots used before term.AppendJSON: every value kind,
// strings that need escapes, the int64 extremes and floats on either side
// of the 'e' format's cutoffs, with a ledger.
func goldenCache() *Manager {
	m := New(domain.NewRegistry(), testCfg())
	rec := term.NewRecord(
		term.Field{Name: "name", Val: term.Str("<a&b>")},
		term.Field{Name: "pos", Val: term.Tuple{term.Float(1.5), term.Float(-2)}},
	)
	f := call("d", "f", term.Str("<a&b>\u2028\"q\"\n\x00é"), term.Int(math.MinInt64))
	m.Store(f, []term.Value{term.Int(math.MaxInt64), term.Float(1e21), term.Float(1e-7), term.Float(0)},
		true, domain.CostVector{TFirst: 3 * time.Millisecond, TAll: 40 * time.Millisecond, Card: 4})
	m.Store(call("d", "g", term.Bool(true), term.Bool(false)),
		[]term.Value{term.Tuple{}, term.Tuple{term.Tuple{term.Int(1), term.Str("")}, term.Tuple{}}, rec, term.NewRecord()},
		false, domain.CostVector{TFirst: time.Millisecond, Card: 0.5})
	m.Store(call("e", "h"), []term.Value{term.Float(123.456), term.Float(-2.5e-8)}, true,
		domain.CostVector{TAll: time.Second, Card: 2})
	m.Store(call("e", "none", term.Tuple{rec}), nil, true, domain.CostVector{})
	e, _ := m.Lookup(f)
	e.hits.Store(2)
	e.savedNS.Store(int64(80 * time.Millisecond))
	m.ledger.credit(ExactKey, 80*time.Millisecond)
	m.ledger.credit("(memo)", 700*time.Millisecond) // a bucket earlier versions saved
	return m
}

func saveBytes(t testing.TB, m *Manager) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCacheSnapshotGolden: snapshot bytes do not change. The golden state
// saves to the golden, and the golden loads and saves to itself.
func TestCacheSnapshotGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/cache_v2.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, goldenCache()); !bytes.Equal(got, golden) {
		t.Errorf("the golden state saves to\n%s\nwant\n%s", got, golden)
	}
	m := New(domain.NewRegistry(), testCfg())
	if err := m.Load(bytes.NewReader(golden)); err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, m); !bytes.Equal(got, golden) {
		t.Errorf("the loaded golden saves to\n%s\nwant\n%s", got, golden)
	}
}

// TestCacheSaveIsDeterministic: two saves of one state write the same
// bytes, and so does a save of the state loaded back (entries are written
// in key order, not map order).
func TestCacheSaveIsDeterministic(t *testing.T) {
	m := goldenCache()
	for i := 0; i < 64; i++ {
		m.Store(call("d", "r", term.Int(int64(i))), strs("x"), i%2 == 0, domain.CostVector{Card: float64(i)})
	}
	first := saveBytes(t, m)
	for i := 0; i < 20; i++ {
		if again := saveBytes(t, m); !bytes.Equal(first, again) {
			t.Fatalf("save %d of the same state differs:\n%s\nvs\n%s", i+2, first, again)
		}
	}
	reloaded := New(domain.NewRegistry(), testCfg())
	if err := reloaded.Load(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if again := saveBytes(t, reloaded); !bytes.Equal(first, again) {
		t.Fatalf("save of the reloaded state differs:\n%s\nvs\n%s", first, again)
	}
}

// TestCacheSaveSkipsEntryWithoutJSONForm: a NaN answer (flatfile and CSV
// sources parse them) costs its own entry, not the snapshot.
func TestCacheSaveSkipsEntryWithoutJSONForm(t *testing.T) {
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1,
		Fn: func([]term.Value) ([]term.Value, error) { return strs("fresh"), nil }})
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	m.Store(call("d", "f", term.Int(1)), []term.Value{term.Float(math.NaN())}, true, domain.CostVector{})
	m.Store(call("d", "f", term.Int(2)), strs("ok"), true, domain.CostVector{})
	m.Store(call("d", "f", term.Float(math.Inf(1))), strs("inf arg"), true, domain.CostVector{})
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatalf("one unencodable entry lost the snapshot: %v", err)
	}
	m2 := New(reg, testCfg())
	if err := m2.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if m2.Len() != 1 {
		t.Errorf("loaded %d entries, want the one with a JSON form", m2.Len())
	}
	resp, err := m2.CallThrough(newCtx(), call("d", "f", term.Int(2)))
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, resp); resp.Source != SourceCacheExact || len(got) != 1 || !term.Equal(got[0], term.Str("ok")) {
		t.Errorf("served %v from %v, want [ok] from the cache", got, resp.Source)
	}
	if d.CallCount("f") != 0 {
		t.Error("the saved entry still called the source")
	}
}

// TestCacheSaveLoadKeepsNegativeZero: an entry for f(-0) is found under
// f(-0) after a reload, and f(+0) keeps its own entry.
func TestCacheSaveLoadKeepsNegativeZero(t *testing.T) {
	m := New(domain.NewRegistry(), testCfg())
	negZero := term.Float(math.Copysign(0, -1))
	m.Store(call("d", "f", negZero), strs("neg"), true, domain.CostVector{})
	m.Store(call("d", "f", term.Float(0)), strs("pos"), true, domain.CostVector{})
	m2 := New(domain.NewRegistry(), testCfg())
	if err := m2.Load(bytes.NewReader(saveBytes(t, m))); err != nil {
		t.Fatal(err)
	}
	e, ok := m2.Lookup(call("d", "f", negZero))
	if !ok || len(e.Answers) != 1 || !term.Equal(e.Answers[0], term.Str("neg")) {
		t.Fatalf("f(-0) after reload: %+v, %v", e, ok)
	}
	if m2.Len() != 2 {
		t.Errorf("reloaded %d entries, want 2", m2.Len())
	}
}

// TestSaveAllocsPerEntry gates what a save allocates per cached entry: its
// value arrays share one buffer, and no value becomes a tree first.
func TestSaveAllocsPerEntry(t *testing.T) {
	m := New(domain.NewRegistry(), testCfg())
	const n = 256
	for i := 0; i < n; i++ {
		m.Store(call("d", "f", term.Int(int64(i)), term.Str("key")), []term.Value{
			term.Tuple{term.Int(1), term.Str("a")},
			term.NewRecord(term.Field{Name: "x", Val: term.Float(1.5)}, term.Field{Name: "y", Val: term.Bool(true)}),
			term.Str("answer"),
		}, true, domain.CostVector{TAll: time.Millisecond, Card: 3})
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := m.Save(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	perEntry := allocs / n
	t.Logf("a save allocates %.1f times per entry", perEntry)
	// Measured 0.2, against 4.7 when each value became a reflective tree
	// first (go1.24, linux/amd64).
	if perEntry > 1 && !raceEnabled {
		t.Errorf("a save allocates %.1f times per entry, want <= 1", perEntry)
	}
}

// FuzzCacheSnapshot: Load never panics, and whatever it accepts saves to a
// fixed point: Save, Load, Save writes the same bytes again.
func FuzzCacheSnapshot(f *testing.F) {
	if golden, err := os.ReadFile("testdata/cache_v2.json"); err == nil {
		f.Add(golden)
	}
	for _, s := range []string{
		`{"version":1,"counter":3,"entries":[]}`,
		`{"version":2,"entries":[{"domain":"d","function":"f","args":null,"answers":[{"t":"f","f":-0},{"t":"s","s":"\ud800"}]}]}`,
		`{"version":2,"entries":[{"args":[{"t":"i","s":"1"}]},{"args":[{"t":"i","s":"1"}],"answers":[{"t":"b","b":true}]}],"ledger":{"total":5,"invariants":[{"key":"(exact)","hits":1,"saved":5}],"entries":[{"key":"x","hits":2,"saved":1}]}}`,
		`{"version":2,"entries":[{"args":[{"t":"zz"}]}]}`,
		`null`, `{}`, `[]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := New(domain.NewRegistry(), testCfg())
		if m.Load(bytes.NewReader(data)) != nil {
			return
		}
		first := saveBytes(t, m)
		m2 := New(domain.NewRegistry(), testCfg())
		if err := m2.Load(bytes.NewReader(first)); err != nil {
			t.Fatalf("a saved snapshot does not load: %v\n%s", err, first)
		}
		if again := saveBytes(t, m2); !bytes.Equal(first, again) {
			t.Fatalf("Save, Load, Save is not a fixed point:\n%s\nvs\n%s", first, again)
		}
	})
}
