package spatial

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"hermes/internal/domain"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

func newCtx() *domain.Ctx { return domain.NewCtx(vclock.NewVirtual(0)) }

// gridStore builds the paper's setting: all points of file "points" lie in
// a 100x100 square.
func gridStore(t *testing.T) *Store {
	t.Helper()
	s := New("spatial")
	var pts []Point
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			pts = append(pts, Point{ID: fmt.Sprintf("p%02d%02d", i, j), X: float64(i * 11), Y: float64(j * 11)})
		}
	}
	s.MustAddFile("points", pts)
	return s
}

func rangeQuery(t *testing.T, s *Store, file string, x, y, d float64) []term.Value {
	t.Helper()
	st, err := s.Call(newCtx(), "range", []term.Value{term.Str(file), term.Float(x), term.Float(y), term.Float(d)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(st)
	if err != nil {
		t.Fatal(err)
	}
	return vals
}

func TestRangeCorrectness(t *testing.T) {
	s := gridStore(t)
	got := rangeQuery(t, s, "points", 0, 0, 12)
	// Points within 12 of origin: (0,0), (11,0), (0,11).
	if len(got) != 3 {
		t.Fatalf("range(0,0,12) = %d points: %v", len(got), got)
	}
}

// TestPaperClampInvariantSemantics verifies the fact that the §4 invariant
// encodes: a range query wider than the diagonal returns exactly the whole
// file, so range(X,Y,D) = range(X,Y,142) for D > 142 when querying from
// within the square.
func TestPaperClampInvariantSemantics(t *testing.T) {
	s := gridStore(t)
	all := rangeQuery(t, s, "points", 50, 50, 142)
	if len(all) != 100 {
		t.Fatalf("clamped query = %d points, want all 100", len(all))
	}
	wider := rangeQuery(t, s, "points", 50, 50, 5000)
	if len(wider) != len(all) {
		t.Errorf("wider query = %d, clamp = %d; invariant premise broken", len(wider), len(all))
	}
}

// bruteRange counts the grid store's points within d of (x, y) by testing
// every one.
func bruteRange(x, y, d float64) int {
	n := 0
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			if math.Hypot(float64(i*11)-x, float64(j*11)-y) <= d {
				n++
			}
		}
	}
	return n
}

// Property: range results match a brute-force scan, also for a radius a
// peer can send as valid JSON but past int's range once scaled to grid
// cells: it clamps to the grid edge, not to whatever the platform's
// float-to-int conversion yields.
func TestRangeMatchesBruteForce(t *testing.T) {
	s := gridStore(t)
	f := func(xi, yi, di uint8) bool {
		x := float64(xi) / 2
		y := float64(yi) / 2
		d := float64(di) / 2
		return len(rangeQuery(t, s, "points", x, y, d)) == bruteRange(x, y, d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
	for _, d := range []float64{200, 1e19, 1e300, math.Inf(1), math.NaN(), -5} {
		if got, want := len(rangeQuery(t, s, "points", 50, 50, d)), bruteRange(50, 50, d); got != want {
			t.Errorf("range radius %g: %d points, brute force %d", d, got, want)
		}
	}
}

func TestNearest(t *testing.T) {
	s := gridStore(t)
	st, err := s.Call(newCtx(), "nearest", []term.Value{term.Str("points"), term.Float(12), term.Float(1)})
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := domain.Collect(st)
	if len(vals) != 1 {
		t.Fatalf("nearest = %v", vals)
	}
	id, _ := vals[0].(term.Record).Get("id")
	if !term.Equal(id, term.Str("p0100")) { // (11, 0)
		t.Errorf("nearest = %v", vals[0])
	}
}

func TestCount(t *testing.T) {
	s := gridStore(t)
	st, _ := s.Call(newCtx(), "count", []term.Value{term.Str("points")})
	vals, _ := domain.Collect(st)
	if !term.Equal(vals[0], term.Int(100)) {
		t.Errorf("count = %v", vals)
	}
}

func TestErrors(t *testing.T) {
	s := gridStore(t)
	if _, err := s.Call(newCtx(), "range", []term.Value{term.Str("nosuch"), term.Float(0), term.Float(0), term.Float(1)}); err == nil {
		t.Error("unknown file")
	}
	if _, err := s.Call(newCtx(), "range", []term.Value{term.Str("points"), term.Str("x"), term.Float(0), term.Float(1)}); err == nil {
		t.Error("non-numeric coordinate")
	}
	if _, err := s.Call(newCtx(), "nosuch", nil); err == nil {
		t.Error("unknown function")
	}
	if err := s.AddFile("points", nil); err == nil {
		t.Error("duplicate file")
	}
}

func TestIntArgsAccepted(t *testing.T) {
	s := gridStore(t)
	st, err := s.Call(newCtx(), "range", []term.Value{term.Str("points"), term.Int(0), term.Int(0), term.Int(12)})
	if err != nil {
		t.Fatal(err)
	}
	vals, _ := domain.Collect(st)
	if len(vals) != 3 {
		t.Errorf("int-arg range = %d", len(vals))
	}
}

func TestEmptyFile(t *testing.T) {
	s := New("spatial")
	s.MustAddFile("empty", nil)
	st, err := s.Call(newCtx(), "range", []term.Value{term.Str("empty"), term.Float(0), term.Float(0), term.Float(10)})
	if err != nil {
		t.Fatal(err)
	}
	if vals, _ := domain.Collect(st); len(vals) != 0 {
		t.Errorf("empty file range = %v", vals)
	}
	st, err = s.Call(newCtx(), "nearest", []term.Value{term.Str("empty"), term.Float(0), term.Float(0)})
	if err != nil {
		t.Fatal(err)
	}
	if vals, _ := domain.Collect(st); len(vals) != 0 {
		t.Errorf("empty file nearest = %v", vals)
	}
}
