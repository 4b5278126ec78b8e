package cim

import (
	"errors"
	"fmt"
	"testing"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/domains/avis"
	"hermes/internal/lang"
	"hermes/internal/term"
	"hermes/internal/workload"
)

// downable is a domain whose availability the test toggles: while down,
// every call fails with the retryable domain.ErrUnavailable — the shape
// the resilience wrapper presents to the CIM when a source is out.
type downable struct {
	domain.Domain
	down bool
	// whileDown, when set, runs in every refused call: it stands in for a
	// concurrent caller that stores an entry while this call's source
	// call fails.
	whileDown func()
}

func (d *downable) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	if d.down {
		if d.whileDown != nil {
			d.whileDown()
		}
		// Mimic the resilience layer's multi-wrapped chains: ErrUnavailable
		// buried under other wrapping, as errors.Is (not ==) must find it.
		return nil, fmt.Errorf("retries exhausted: %w",
			fmt.Errorf("%w: source offline", domain.ErrUnavailable))
	}
	return d.Domain.Call(ctx, fn, args)
}

// TestDegradedAnswersAreSoundSubset is the degradation counterpart of
// TestSoundnessOverRandomStream: over a random call stream with the
// source flapping, every cache-degraded response must be a subset of the
// source's true answer set — stale/partial is allowed, wrong is not.
func TestDegradedAnswersAreSoundSubset(t *testing.T) {
	store := avis.New("avis")
	avis.LoadRope(store)

	// Twin registry over the raw store supplies ground truth even while
	// the mediated source is down.
	truthReg := domain.NewRegistry()
	truthReg.Register(store)

	src := &downable{Domain: store}
	reg := domain.NewRegistry()
	reg.Register(src)

	m := New(reg, testCfg())
	for _, isrc := range []string{
		"true => avis:frames_to_objects(V, F, L) = avis:objects_in_range(V, F, L).",
		"F1 <= G1 & G2 <= F2 => avis:frames_to_objects(V, F1, F2) >= avis:frames_to_objects(V, G1, G2).",
	} {
		inv, err := lang.ParseInvariant(isrc)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.AddInvariant(inv); err != nil {
			t.Fatal(err)
		}
	}

	asSet := func(vals []term.Value) map[string]bool {
		out := make(map[string]bool, len(vals))
		for _, v := range vals {
			out[v.Key()] = true
		}
		return out
	}

	stream := workload.FrameRanges(workload.DefaultFrameRanges(200))
	degraded := 0
	for i, c := range stream {
		// The source flaps: down for the second quarter and the last fifth
		// of the stream.
		src.down = (i >= 50 && i < 100) || i >= 160

		ds, err := truthReg.Call(newCtx(), c)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := domain.Collect(ds)
		if err != nil {
			t.Fatal(err)
		}
		truth := asSet(direct)

		ctx, notes := notingCtx()
		resp, err := m.CallThrough(ctx, c)
		if err != nil {
			// Nothing cached to degrade to: the only acceptable failure,
			// and it must stay typed retryable.
			if !src.down || !errors.Is(err, domain.ErrUnavailable) {
				t.Fatalf("call %d (%s): %v", i, c, err)
			}
			continue
		}
		got, err := domain.Collect(resp.Stream)
		if err != nil {
			t.Fatalf("call %d (%s, served by %v): drain: %v", i, c, resp.Source, err)
		}
		have := asSet(got)
		_, isDegraded := notes.read(c.Key())

		// Soundness: never a tuple outside the true answer set, degraded
		// or not.
		for k := range have {
			if !truth[k] {
				t.Fatalf("call %d (%s, served by %v, degraded=%v): unsound answer %s",
					i, c, resp.Source, isDegraded, k)
			}
		}
		if isDegraded {
			degraded++
			// Either served wholly from cache, or a partial hit whose
			// completion call fell back mid-stream.
			if resp.Source != SourceCacheDegraded && resp.Source != SourceCachePartial {
				t.Errorf("call %d: Degraded response with source %v", i, resp.Source)
			}
		} else if len(have) != len(truth) {
			// Non-degraded responses keep the original completeness
			// guarantee.
			t.Fatalf("call %d (%s, served by %v): %d answers, source gives %d",
				i, c, resp.Source, len(have), len(truth))
		}
	}
	if degraded == 0 {
		t.Fatal("no degraded serves over a flapping source; property vacuous")
	}
	st := m.Stats()
	if st.DegradedServes == 0 {
		t.Errorf("degradation not counted: %+v", st)
	}
}

// TestDegradeServesIncompleteEntrySubset: an entry cut short mid-fill
// (incomplete) may still be served degraded — and stays a sound subset.
func TestDegradeServesIncompleteEntrySubset(t *testing.T) {
	store := avis.New("avis")
	avis.LoadRope(store)
	truthReg := domain.NewRegistry()
	truthReg.Register(store)

	src := &downable{Domain: store}
	reg := domain.NewRegistry()
	reg.Register(src)
	m := New(reg, testCfg())

	c := call("avis", "frames_to_objects", term.Str("rope"), term.Int(0), term.Int(200))

	// Fill the cache partially: pull a few answers, then close early.
	resp, err := m.CallThrough(newCtx(), c)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok, err := resp.Stream.Next(); !ok || err != nil {
			t.Fatalf("prefix pull %d: %v %v", i, ok, err)
		}
	}
	resp.Stream.Close()

	src.down = true
	ctx, notes := notingCtx()
	resp2, err := m.CallThrough(ctx, c)
	if err != nil {
		t.Fatalf("expected degraded serve from incomplete entry, got %v", err)
	}
	got, err := domain.Collect(resp2.Stream)
	if err != nil {
		t.Fatal(err)
	}
	// The incomplete entry serves as a partial hit whose completion call
	// fails; by drain time the call must have been noted degraded.
	if noted, degraded := notes.read(c.Key()); resp2.Source != SourceCachePartial || !noted || !degraded {
		t.Fatalf("source %v, noted %v, degraded %v: want a partial serve noted degraded", resp2.Source, noted, degraded)
	}
	ds, err := truthReg.Call(newCtx(), c)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := domain.Collect(ds)
	if err != nil {
		t.Fatal(err)
	}
	truth := map[string]bool{}
	for _, v := range direct {
		truth[v.Key()] = true
	}
	if len(got) == 0 || len(got) >= len(direct) {
		t.Fatalf("degraded serve returned %d of %d answers, want a proper subset", len(got), len(direct))
	}
	for _, v := range got {
		if !truth[v.Key()] {
			t.Fatalf("unsound degraded answer %s", v)
		}
	}
}

// TestUnavailableMissServesEntryStoredMeanwhile: when a miss's source
// call fails as unavailable, the lookup ladder runs once more and serves
// what a concurrent call stored in between, degraded. The re-lookup keeps
// the ladder's order: a complete equality match beats the call's own
// incomplete entry. With nothing stored, the typed error stands.
func TestUnavailableMissServesEntryStoredMeanwhile(t *testing.T) {
	d := domaintest.New("d")
	for _, fn := range []string{"f", "g"} {
		d.Define(fn, domaintest.Func{Arity: 1,
			Fn: func([]term.Value) ([]term.Value, error) { return strs("x", "y"), nil }})
	}
	src := &downable{Domain: d, down: true}
	reg := domain.NewRegistry()
	reg.Register(src)
	m := New(reg, testCfg())
	inv, err := lang.ParseInvariant("true => d:f(A) = d:g(A).")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(inv); err != nil {
		t.Fatal(err)
	}
	var invalidated []string
	m.SetOnInvalidate(func(key string) { invalidated = append(invalidated, key) })

	f := call("d", "f", term.Str("a"))
	if _, err := m.CallThrough(newCtx(), f); !errors.Is(err, domain.ErrUnavailable) {
		t.Fatalf("nothing cached: err = %v, want unavailable", err)
	}

	g := call("d", "g", term.Str("a"))
	src.whileDown = func() {
		m.Store(f, strs("x"), false, domain.CostVector{})
		m.Store(g, strs("x", "y"), true, domain.CostVector{})
	}
	ctx, notes := notingCtx()
	resp, err := m.CallThrough(ctx, f)
	if err != nil {
		t.Fatal(err)
	}
	notedF, _ := notes.read(f.Key())
	notedG, degraded := notes.read(g.Key())
	if resp.Source != SourceCacheDegraded || !notedF || !notedG || !degraded {
		t.Fatalf("source %v, noted %s %v and %s %v, degraded %v: want a degraded serve of %s",
			resp.Source, f, notedF, g, notedG, degraded, g)
	}
	if got := drain(t, resp); len(got) != 2 {
		t.Fatalf("answers = %v, want d:g(a)'s two", got)
	}
	if st := m.Stats(); st.DegradedServes != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v, want 1 degraded serve after 2 misses", st)
	}
	if len(invalidated) != 1 || invalidated[0] != f.Key() {
		t.Errorf("invalidated %v, want the degraded call %s", invalidated, f.Key())
	}
}
