package avis

import (
	"testing"
	"testing/quick"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

func newCtx() *domain.Ctx { return domain.NewCtx(vclock.NewVirtual(0)) }

func callVals(t *testing.T, s *Store, fn string, args ...term.Value) []term.Value {
	t.Helper()
	st, err := s.Call(newCtx(), fn, args)
	if err != nil {
		t.Fatalf("%s: %v", fn, err)
	}
	vals, err := domain.Collect(st)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func ropeStore(t *testing.T) *Store {
	t.Helper()
	s := New("avis")
	LoadRope(s)
	return s
}

func TestRopeDatasetShape(t *testing.T) {
	s := ropeStore(t)
	v, ok := s.Video("rope")
	if !ok {
		t.Fatal("rope not loaded")
	}
	if v.Frames != 160 {
		t.Errorf("frames = %d", v.Frames)
	}
	// The paper's Figure 5 result cardinalities.
	mid := callVals(t, s, "frames_to_objects", term.Str("rope"), term.Int(4), term.Int(47))
	if len(mid) < 17 || len(mid) > 21 {
		t.Errorf("frames_to_objects(4,47) = %d objects, want ≈19", len(mid))
	}
	wide := callVals(t, s, "frames_to_objects", term.Str("rope"), term.Int(4), term.Int(127))
	if len(wide) < 22 || len(wide) > 26 {
		t.Errorf("frames_to_objects(4,127) = %d objects, want ≈24", len(wide))
	}
	if len(wide) <= len(mid) {
		t.Error("wider range should find more objects")
	}
}

func TestVideoSize(t *testing.T) {
	s := ropeStore(t)
	vals := callVals(t, s, "video_size", term.Str("rope"))
	if len(vals) != 1 || !term.Equal(vals[0], term.Int(10240)) {
		t.Errorf("video_size = %v", vals)
	}
}

func TestObjects(t *testing.T) {
	s := ropeStore(t)
	objs := callVals(t, s, "objects", term.Str("rope"))
	if len(objs) != 25 {
		t.Errorf("objects = %d", len(objs))
	}
}

func TestObjectToFrames(t *testing.T) {
	s := ropeStore(t)
	ivs := callVals(t, s, "object_to_frames", term.Str("rope"), term.Str("rupert cadell"))
	if len(ivs) != 1 {
		t.Fatalf("intervals = %v", ivs)
	}
	iv := ivs[0].(term.Tuple)
	if !term.Equal(iv[0], term.Int(40)) || !term.Equal(iv[1], term.Int(159)) {
		t.Errorf("interval = %v", iv)
	}
	if got := callVals(t, s, "object_to_frames", term.Str("rope"), term.Str("nobody")); len(got) != 0 {
		t.Errorf("unknown object = %v", got)
	}
}

func TestVideosListing(t *testing.T) {
	s := ropeStore(t)
	Generate(s, "zsynth", 100, 5, 1)
	vals := callVals(t, s, "videos")
	if len(vals) != 2 || !term.Equal(vals[0], term.Str("rope")) {
		t.Errorf("videos = %v", vals)
	}
}

func TestFrameRangeSwapped(t *testing.T) {
	s := ropeStore(t)
	a := callVals(t, s, "frames_to_objects", term.Str("rope"), term.Int(4), term.Int(47))
	b := callVals(t, s, "frames_to_objects", term.Str("rope"), term.Int(47), term.Int(4))
	if len(a) != len(b) {
		t.Errorf("swapped bounds differ: %d vs %d", len(a), len(b))
	}
}

// Property: frames_to_objects is monotone in range width (superset
// invariant of the Figure 5 partial-invariant configuration).
func TestFramesToObjectsMonotoneProperty(t *testing.T) {
	s := ropeStore(t)
	f := func(a, b, c uint8) bool {
		lo := int64(a) % 160
		mid := lo + int64(b)%40
		hi := mid + int64(c)%40
		if mid > 159 {
			mid = 159
		}
		if hi > 159 {
			hi = 159
		}
		narrow := callVals(t, s, "frames_to_objects", term.Str("rope"), term.Int(lo), term.Int(mid))
		wide := callVals(t, s, "frames_to_objects", term.Str("rope"), term.Int(lo), term.Int(hi))
		keys := map[string]bool{}
		for _, v := range wide {
			keys[v.Key()] = true
		}
		for _, v := range narrow {
			if !keys[v.Key()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCostDependsOnRangeWidth(t *testing.T) {
	s := ropeStore(t)
	t1 := timedCall(t, s, "frames_to_objects", term.Str("rope"), term.Int(4), term.Int(10))
	t2 := timedCall(t, s, "frames_to_objects", term.Str("rope"), term.Int(4), term.Int(127))
	if t2 <= t1 {
		t.Errorf("wide range not more expensive: %v vs %v", t1, t2)
	}
}

func timedCall(t *testing.T, s *Store, fn string, args ...term.Value) time.Duration {
	t.Helper()
	ctx := newCtx()
	st, err := s.Call(ctx, fn, args)
	if err != nil {
		t.Fatal(err)
	}
	domain.Collect(st)
	return ctx.Clock.Now()
}

func TestErrors(t *testing.T) {
	s := ropeStore(t)
	if _, err := s.Call(newCtx(), "nosuch", nil); err == nil {
		t.Error("unknown function")
	}
	if _, err := s.Call(newCtx(), "video_size", []term.Value{term.Str("nosuch")}); err == nil {
		t.Error("unknown video")
	}
	if _, err := s.Call(newCtx(), "frames_to_objects", []term.Value{term.Str("rope"), term.Str("x"), term.Int(2)}); err == nil {
		t.Error("non-int frame")
	}
	if _, err := s.Call(newCtx(), "objects", nil); err == nil {
		t.Error("arity mismatch")
	}
	if _, err := s.AddVideo("rope", 10, 1, nil); err == nil {
		t.Error("duplicate video")
	}
	if _, err := s.AddVideo("bad", 10, 1, []Occurrence{{Object: "x", Interval: Interval{From: 5, To: 20}}}); err == nil {
		t.Error("out-of-range occurrence")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s1 := New("a")
	s2 := New("a")
	v1 := Generate(s1, "v", 500, 20, 42)
	v2 := Generate(s2, "v", 500, 20, 42)
	if len(v1.occs) != len(v2.occs) {
		t.Fatal("generation not deterministic")
	}
	for i := range v1.occs {
		if v1.occs[i] != v2.occs[i] {
			t.Fatalf("occurrence %d differs", i)
		}
	}
}

func TestRopeCastJoinsWithObjects(t *testing.T) {
	// Every cast role occurs in the video, so the appendix's cast join is
	// non-empty.
	s := ropeStore(t)
	objs := callVals(t, s, "objects", term.Str("rope"))
	keys := map[string]bool{}
	for _, o := range objs {
		keys[o.Key()] = true
	}
	for _, c := range RopeCast {
		if !keys[term.Str(c.Role).Key()] {
			t.Errorf("cast role %q missing from video objects", c.Role)
		}
	}
}

// TestCallAllocsPer: the store hands up values it boxed when the video was
// added, so a call allocates a fixed number of objects whatever its answer
// count: object_to_frames only its stream, a range query its stream and
// its answer list.
func TestCallAllocsPer(t *testing.T) {
	s := ropeStore(t)
	ctx := newCtx()
	for _, tc := range []struct {
		fn   string
		args []term.Value
		want float64
	}{
		{"object_to_frames", []term.Value{term.Str("rope"), term.Str("rupert cadell")}, 1},
		{"object_to_frames", []term.Value{term.Str("rope"), term.Str("no such object")}, 1},
		{"frames_to_objects", []term.Value{term.Str("rope"), term.Int(4), term.Int(5)}, 2},
		{"frames_to_objects", []term.Value{term.Str("rope"), term.Int(0), term.Int(159)}, 2},
		{"objects_in_range", []term.Value{term.Str("rope"), term.Int(40), term.Int(127)}, 2},
	} {
		answers := 0
		n := testing.AllocsPerRun(100, func() {
			st, err := s.Call(ctx, tc.fn, tc.args)
			if err != nil {
				t.Fatal(err)
			}
			for answers = 0; ; answers++ {
				if _, ok, _ := st.Next(); !ok {
					break
				}
			}
		})
		if n != tc.want {
			t.Errorf("%s%v: %d answers allocate %v objects, want %v", tc.fn, tc.args, answers, n, tc.want)
		}
	}
}
