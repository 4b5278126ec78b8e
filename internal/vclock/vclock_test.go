package vclock

import (
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestVirtualBasics(t *testing.T) {
	v := NewVirtual(0)
	if v.Now() != 0 {
		t.Errorf("initial = %v", v.Now())
	}
	v.Sleep(100 * time.Millisecond)
	if v.Now() != 100*time.Millisecond {
		t.Errorf("after sleep = %v", v.Now())
	}
	v.Sleep(-5 * time.Millisecond)
	if v.Now() != 100*time.Millisecond {
		t.Errorf("negative sleep advanced the clock: %v", v.Now())
	}
}

func TestVirtualZeroValueUsable(t *testing.T) {
	var v Virtual
	v.Sleep(time.Second)
	if v.Now() != time.Second {
		t.Errorf("zero-value clock = %v", v.Now())
	}
}

func TestForkAndJoin(t *testing.T) {
	v := NewVirtual(10 * time.Millisecond)
	f := v.Fork()
	if f.Now() != 10*time.Millisecond {
		t.Errorf("fork start = %v", f.Now())
	}
	// Parent and child advance independently.
	v.Sleep(5 * time.Millisecond)
	f.Sleep(100 * time.Millisecond)
	if v.Now() != 15*time.Millisecond {
		t.Errorf("parent = %v", v.Now())
	}
	v.Join(f)
	if v.Now() != 110*time.Millisecond {
		t.Errorf("after join = %v, want max(15, 110)ms", v.Now())
	}
	// Joining a slower child must not rewind.
	s := v.Fork()
	v.Sleep(50 * time.Millisecond)
	v.Join(s)
	if v.Now() != 160*time.Millisecond {
		t.Errorf("join rewound the clock: %v", v.Now())
	}
}

func TestJoinMultiple(t *testing.T) {
	v := NewVirtual(0)
	a, b, c := v.Fork(), v.Fork(), v.Fork()
	a.Sleep(10 * time.Millisecond)
	b.Sleep(30 * time.Millisecond)
	c.Sleep(20 * time.Millisecond)
	v.Join(a, b, c)
	if v.Now() != 30*time.Millisecond {
		t.Errorf("join = %v, want 30ms", v.Now())
	}
}

func TestVirtualConcurrency(t *testing.T) {
	v := NewVirtual(0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				v.Sleep(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if v.Now() != 8*1000*time.Microsecond {
		t.Errorf("concurrent sleeps = %v, want 8ms", v.Now())
	}
}

func TestWallClock(t *testing.T) {
	w := NewWall()
	before := w.Now()
	w.Sleep(2 * time.Millisecond)
	after := w.Now()
	if after-before < 2*time.Millisecond {
		t.Errorf("wall sleep too short: %v", after-before)
	}
	f := w.Fork()
	if f.Now() < after {
		t.Errorf("wall fork shares epoch; Now = %v < %v", f.Now(), after)
	}
	w.Join(f) // must be a no-op, not panic
}

func TestMillis(t *testing.T) {
	if s := Millis(2581 * time.Millisecond); s != "2581" {
		t.Errorf("Millis = %q", s)
	}
}

// Property: sleeps accumulate additively.
func TestSleepAdditive(t *testing.T) {
	f := func(a, b uint16) bool {
		v := NewVirtual(0)
		v.Sleep(time.Duration(a))
		v.Sleep(time.Duration(b))
		return v.Now() == time.Duration(a)+time.Duration(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Join is idempotent and monotone.
func TestJoinMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		v := NewVirtual(time.Duration(a))
		c := NewVirtual(time.Duration(b))
		v.Join(c)
		first := v.Now()
		v.Join(c)
		return v.Now() == first && first >= time.Duration(a) && first >= time.Duration(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
