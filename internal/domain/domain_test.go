package domain

import (
	"errors"
	"testing"
	"time"

	"hermes/internal/term"
	"hermes/internal/vclock"
)

func TestCallKeyCanonical(t *testing.T) {
	a := Call{Domain: "d", Function: "f", Args: []term.Value{term.Str("x"), term.Int(1)}}
	b := Call{Domain: "d", Function: "f", Args: []term.Value{term.Str("x"), term.Int(1)}}
	if a.Key() != b.Key() {
		t.Error("identical calls should share a key")
	}
	c := Call{Domain: "d", Function: "f", Args: []term.Value{term.Str("x"), term.Int(2)}}
	if a.Key() == c.Key() {
		t.Error("different args, same key")
	}
	d := Call{Domain: "d2", Function: "f", Args: a.Args}
	if a.Key() == d.Key() {
		t.Error("different domain, same key")
	}
}

func TestCallString(t *testing.T) {
	c := Call{Domain: "avis", Function: "frames_to_objects",
		Args: []term.Value{term.Str("rope"), term.Int(4), term.Int(47)}}
	if got := c.String(); got != "avis:frames_to_objects('rope', 4, 47)" {
		t.Errorf("String = %q", got)
	}
}

// TestCallKeyAllocsPer: a call over string and integer arguments builds
// its key and its name with one allocation each, the string itself.
func TestCallKeyAllocsPer(t *testing.T) {
	c := Call{Domain: "ingres", Function: "equal",
		Args: []term.Value{term.Str("cast"), term.Str("role"), term.Str("it's"), term.Int(-47)}}
	if got, want := c.Key(), `ingres:equal(s"cast",s"role",s"it's",i-47)`; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	if got, want := c.String(), `ingres:equal('cast', 'role', 'it\'s', -47)`; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	plain := Call{Domain: "avis", Function: "frames_to_objects",
		Args: []term.Value{term.Str("rope"), term.Int(4), term.Int(47)}}
	var s string
	if n := testing.AllocsPerRun(100, func() { s = plain.Key() }); n != 1 {
		t.Errorf("Key allocates %v times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { s = plain.String() }); n != 1 {
		t.Errorf("String allocates %v times, want 1", n)
	}
	_ = s
}

func TestPatternOfAndRelax(t *testing.T) {
	c := Call{Domain: "d", Function: "f", Args: []term.Value{term.Str("a"), term.Int(2)}}
	p := PatternOf(c)
	if p.Mask() != 0b11 {
		t.Errorf("pattern = %v mask=%b", p, p.Mask())
	}
	r := p.Relax(0)
	if r.Mask() != 0b10 {
		t.Errorf("relaxed = %v mask=%b", r, r.Mask())
	}
	if p.Mask() != 0b11 {
		t.Error("Relax mutated the original")
	}
	if r.String() != "d:f($b, 2)" {
		t.Errorf("relaxed string = %q", r.String())
	}
}

func TestRegistryRouting(t *testing.T) {
	reg := NewRegistry()
	if _, ok := reg.Get("x"); ok {
		t.Error("empty registry Get should fail")
	}
	_, err := reg.Call(NewCtx(nil), Call{Domain: "x", Function: "f"})
	if !errors.Is(err, ErrUnknownDomain) {
		t.Errorf("err = %v", err)
	}
	if ok, _ := reg.HasFunction("x", "f", 0); ok {
		t.Error("HasFunction on unknown domain")
	}
}

func TestCollectAndSliceStream(t *testing.T) {
	s := NewSliceStream([]term.Value{term.Int(1), term.Int(2)})
	vals, err := Collect(s)
	if err != nil || len(vals) != 2 {
		t.Fatalf("collect = %v, %v", vals, err)
	}
	// Closed stream stops.
	s2 := NewSliceStream([]term.Value{term.Int(1), term.Int(2)})
	s2.Next()
	s2.Close()
	if _, ok, _ := s2.Next(); ok {
		t.Error("closed stream yielded")
	}
}

func TestTimedSliceStreamChargesClock(t *testing.T) {
	clk := vclock.NewVirtual(0)
	s := NewTimedSliceStream([]term.Value{term.Int(1), term.Int(2)}, clk, 10*time.Millisecond)
	s.Next()
	if clk.Now() != 10*time.Millisecond {
		t.Errorf("after one answer: %v", clk.Now())
	}
	Collect(s)
	if clk.Now() != 20*time.Millisecond {
		t.Errorf("after all answers: %v", clk.Now())
	}
}

// TestTimedSliceStreamNilClock: without a clock a timed slice stream
// charges nothing and serves every answer.
func TestTimedSliceStreamNilClock(t *testing.T) {
	vals, err := Collect(NewTimedSliceStream([]term.Value{term.Int(1), term.Int(2)}, nil, 10*time.Millisecond))
	if err != nil || len(vals) != 2 {
		t.Errorf("got %v (%v), want both answers", vals, err)
	}
}

func TestDedupStream(t *testing.T) {
	seed := map[string]struct{}{term.Int(1).Key(): {}}
	inner := NewSliceStream([]term.Value{term.Int(1), term.Int(2), term.Int(2), term.Int(3)})
	s := NewDedupStream(inner, seed)
	vals, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || !term.Equal(vals[0], term.Int(2)) || !term.Equal(vals[1], term.Int(3)) {
		t.Errorf("dedup = %v", vals)
	}
}

func TestDedupStreamProbeCost(t *testing.T) {
	clk := vclock.NewVirtual(0)
	inner := NewSliceStream([]term.Value{term.Int(1), term.Int(2)})
	s := NewDedupStream(inner, nil).WithProbeCost(clk, 5*time.Millisecond)
	Collect(s)
	if clk.Now() != 10*time.Millisecond {
		t.Errorf("probe cost = %v, want 10ms", clk.Now())
	}
}

func TestMeasuredStreamComplete(t *testing.T) {
	clk := vclock.NewVirtual(0)
	inner := NewTimedSliceStream([]term.Value{term.Str("abcd"), term.Str("ef")}, clk, 100*time.Millisecond)
	var got Measurement
	call := Call{Domain: "d", Function: "f"}
	ms := NewMeasuredStreamAt(inner, clk, call, clk.Now(), func(m Measurement) { got = m })
	if _, err := Collect(ms); err != nil {
		t.Fatal(err)
	}
	if !got.Complete {
		t.Error("drained stream should measure complete")
	}
	if got.Cost.TFirst != 100*time.Millisecond || got.Cost.TAll != 200*time.Millisecond {
		t.Errorf("cost = %v", got.Cost)
	}
	if got.Cost.Card != 2 {
		t.Errorf("card=%v", got.Cost.Card)
	}
}

func TestMeasuredStreamEarlyClose(t *testing.T) {
	clk := vclock.NewVirtual(0)
	inner := NewSliceStream([]term.Value{term.Int(1), term.Int(2), term.Int(3)})
	var got Measurement
	fired := 0
	ms := NewMeasuredStreamAt(inner, clk, Call{}, clk.Now(), func(m Measurement) { got = m; fired++ })
	ms.Next()
	ms.Close()
	ms.Close() // second close must not re-fire
	if fired != 1 {
		t.Fatalf("onDone fired %d times", fired)
	}
	if got.Complete {
		t.Error("early close should measure incomplete")
	}
	if got.Cost.Card != 1 {
		t.Errorf("card = %v", got.Cost.Card)
	}
}

func TestMeasuredStreamAtExplicitStart(t *testing.T) {
	clk := vclock.NewVirtual(1 * time.Second)
	inner := NewSliceStream([]term.Value{term.Int(1)})
	var got Measurement
	// The call was issued 400ms ago (per-call cost already charged).
	ms := NewMeasuredStreamAt(inner, clk, Call{}, 600*time.Millisecond, func(m Measurement) { got = m })
	Collect(ms)
	if got.Cost.TAll != 400*time.Millisecond {
		t.Errorf("TAll = %v, want 400ms", got.Cost.TAll)
	}
}

func TestCostVectorString(t *testing.T) {
	cv := CostVector{TFirst: 300 * time.Millisecond, TAll: 1021 * time.Millisecond, Card: 6}
	if got := cv.String(); got != "[Tf=300ms Ta=1021ms Card=6.00]" {
		t.Errorf("String = %q", got)
	}
}

func TestCtxForkIndependentClock(t *testing.T) {
	ctx := NewCtx(vclock.NewVirtual(0))
	fork := ctx.Fork()
	fork.Clock.Sleep(time.Second)
	if ctx.Clock.Now() != 0 {
		t.Error("fork advanced the parent clock")
	}
	ctx.Clock.Join(fork.Clock)
	if ctx.Clock.Now() != time.Second {
		t.Error("join failed")
	}
}
