// Package vclock provides the clock abstraction used by every timed
// component of the mediator: the execution engine, the network simulation,
// the cache and invariant manager, and the statistics module.
//
// Experiments in the paper measure wall-clock times of calls to sources
// distributed across the Internet. This reproduction replaces the live
// Internet with a deterministic simulation; simulated latencies advance a
// virtual clock instead of blocking a real one, so a "48 second" query to a
// site in Italy costs nothing real. A wall-clock implementation is provided
// for runs against genuinely remote (TCP) sources.
package vclock

import (
	"fmt"
	"sync"
	"time"
)

// Clock is the time source threaded through the engine and the domains.
//
// Sleep advances the clock by d: a virtual clock increments a counter, a
// wall clock really sleeps. Fork creates an independent child clock starting
// at the current reading, used to model concurrent activities (for example
// the CIM answering from cache while the actual source call proceeds in
// parallel); Join folds the child readings back by taking the maximum.
type Clock interface {
	// Now returns the current reading.
	Now() time.Duration
	// Sleep advances the clock by d. Negative d is a no-op.
	Sleep(d time.Duration)
	// Fork returns a child clock whose reading starts at Now().
	Fork() Clock
	// Join advances this clock to the largest reading among itself and the
	// given clocks. Joining a clock that is not a child of this one is
	// allowed; only the readings matter.
	Join(children ...Clock)
}

// Virtual is a deterministic simulated clock. The zero value reads 0 and is
// ready to use. Virtual is safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now time.Duration
}

// NewVirtual returns a virtual clock reading start.
func NewVirtual(start time.Duration) *Virtual {
	return &Virtual{now: start}
}

// Now returns the current virtual reading.
func (v *Virtual) Now() time.Duration {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Sleep advances the virtual clock by d without blocking.
func (v *Virtual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	v.mu.Lock()
	v.now += d
	v.mu.Unlock()
}

// Fork returns a new virtual clock starting at the current reading.
func (v *Virtual) Fork() Clock {
	return NewVirtual(v.Now())
}

// Join advances the clock to the maximum reading among itself and children.
func (v *Virtual) Join(children ...Clock) {
	max := v.Now()
	for _, c := range children {
		if n := c.Now(); n > max {
			max = n
		}
	}
	v.mu.Lock()
	if max > v.now {
		v.now = max
	}
	v.mu.Unlock()
}

// Wall is a real-time clock: Sleep blocks, Now reports elapsed time since
// the clock (or its root ancestor) was created.
type Wall struct {
	start time.Time
}

// NewWall returns a wall clock whose reading starts at zero now.
func NewWall() *Wall {
	return &Wall{start: time.Now()}
}

// Now returns the elapsed real time since the clock was created.
func (w *Wall) Now() time.Duration { return time.Since(w.start) }

// Sleep blocks for d.
func (w *Wall) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Fork returns a clock sharing this clock's epoch: concurrent activities
// measured against real time naturally overlap, so the child is the same
// epoch and Join is a no-op beyond reading time.
func (w *Wall) Fork() Clock { return &Wall{start: w.start} }

// Join is a no-op for wall clocks; real time already advanced.
func (w *Wall) Join(children ...Clock) {}

// RealTime marks Wall clocks: their readings track real elapsed time, so
// arrival order across goroutines is already meaningful and deterministic
// merges are unnecessary. See IsReal.
func (w *Wall) RealTime() bool { return true }

// IsReal reports whether a clock's readings track real elapsed time (a
// Wall clock or a wrapper exposing RealTime). Virtual clocks are
// deterministic: parallel operators merge their branches by simulated
// timestamp so runs stay reproducible; real-time clocks merge by arrival.
func IsReal(c Clock) bool {
	r, ok := c.(interface{ RealTime() bool })
	return ok && r.RealTime()
}

// AdvanceTo advances c to the absolute reading t, sleeping the difference.
// It is a no-op when c already reads t or later. Parallel consumers use it
// to account for waiting on a branch whose (forked) clock is ahead.
func AdvanceTo(c Clock, t time.Duration) {
	if d := t - c.Now(); d > 0 {
		c.Sleep(d)
	}
}

// Millis formats a duration the way the paper reports times: integral
// milliseconds.
func Millis(d time.Duration) string {
	return fmt.Sprintf("%d", d.Milliseconds())
}
