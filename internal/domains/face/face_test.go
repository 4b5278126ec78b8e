package face

import (
	"testing"

	"hermes/internal/domain"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

func newCtx() *domain.Ctx { return domain.NewCtx(vclock.NewVirtual(0)) }

func testGallery(t *testing.T) *Gallery {
	t.Helper()
	g := New("faces")
	g.Populate(200, 7)
	return g
}

func TestCount(t *testing.T) {
	g := testGallery(t)
	st, _ := g.Call(newCtx(), "count", nil)
	vals, _ := domain.Collect(st)
	if !term.Equal(vals[0], term.Int(200)) {
		t.Errorf("count = %v", vals)
	}
}

func TestMatchThresholdMonotone(t *testing.T) {
	g := testGallery(t)
	run := func(thr float64) []term.Value {
		st, err := g.Call(newCtx(), "match", []term.Value{term.Str("person0001"), term.Float(thr)})
		if err != nil {
			t.Fatal(err)
		}
		vals, _ := domain.Collect(st)
		return vals
	}
	narrow := run(3)
	wide := run(6)
	if len(wide) < len(narrow) {
		t.Errorf("wider threshold fewer matches: %d vs %d", len(wide), len(narrow))
	}
	keys := map[string]bool{}
	for _, v := range wide {
		p, _ := v.(term.Record).Get("person")
		keys[p.Key()] = true
	}
	for _, v := range narrow {
		p, _ := v.(term.Record).Get("person")
		if !keys[p.Key()] {
			t.Errorf("narrow match %v missing from wide", p)
		}
	}
	// Results sorted by distance.
	prev := -1.0
	for _, v := range wide {
		d, _ := v.(term.Record).Get("distance")
		f := float64(d.(term.Float))
		if f < prev {
			t.Error("matches not sorted by distance")
		}
		prev = f
	}
}

func TestMatchExcludesSelf(t *testing.T) {
	g := testGallery(t)
	st, _ := g.Call(newCtx(), "match", []term.Value{term.Str("person0001"), term.Float(100)})
	vals, _ := domain.Collect(st)
	for _, v := range vals {
		p, _ := v.(term.Record).Get("person")
		if term.Equal(p, term.Str("person0001")) {
			t.Error("self match returned")
		}
	}
	if len(vals) != 199 {
		t.Errorf("huge threshold matches = %d, want 199", len(vals))
	}
}

func TestIdentifyDeterministic(t *testing.T) {
	g := testGallery(t)
	run := func() term.Value {
		st, _ := g.Call(newCtx(), "identify", []term.Value{term.Str("person0002")})
		vals, _ := domain.Collect(st)
		if len(vals) != 1 {
			t.Fatalf("identify = %v", vals)
		}
		return vals[0]
	}
	if !term.Equal(run(), run()) {
		t.Error("identify not deterministic")
	}
}

func TestMatchCostScalesWithCandidates(t *testing.T) {
	g := testGallery(t)
	cost := func(thr float64) int64 {
		ctx := newCtx()
		st, _ := g.Call(ctx, "match", []term.Value{term.Str("person0001"), term.Float(thr)})
		domain.Collect(st)
		return int64(ctx.Clock.Now())
	}
	if cost(100) <= cost(1) {
		t.Error("many-candidate match should cost more (refinement passes)")
	}
}

func TestErrors(t *testing.T) {
	g := testGallery(t)
	if _, err := g.Call(newCtx(), "match", []term.Value{term.Str("nobody"), term.Float(1)}); err == nil {
		t.Error("unknown probe")
	}
	if _, err := g.Call(newCtx(), "match", []term.Value{term.Str("person0001"), term.Str("x")}); err == nil {
		t.Error("non-numeric threshold")
	}
	if _, err := g.Call(newCtx(), "nosuch", nil); err == nil {
		t.Error("unknown function")
	}
	if err := g.Add(Entry{Person: "person0001"}); err == nil {
		t.Error("duplicate enrollment")
	}
	if _, err := g.Call(newCtx(), "identify", []term.Value{term.Int(1)}); err == nil {
		t.Error("non-string probe")
	}
}

func TestSingletonGalleryIdentify(t *testing.T) {
	g := New("faces")
	g.Populate(1, 1)
	st, err := g.Call(newCtx(), "identify", []term.Value{term.Str("person0000")})
	if err != nil {
		t.Fatal(err)
	}
	if vals, _ := domain.Collect(st); len(vals) != 0 {
		t.Errorf("identify with no other faces = %v", vals)
	}
}
