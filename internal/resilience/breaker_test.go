package resilience

import (
	"errors"
	"testing"
	"time"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// transitionCounts reads a breaker's transition tallies by target state.
func transitionCounts(b *Breaker) [3]int64 {
	var n [3]int64
	for to := range n {
		n[to] = b.transitions[to].Value()
	}
	return n
}

// TestBreakerLifecycle drives the full closed→open→half-open→closed cycle
// and checks every transition and counter along the way, then flaps the
// breaker: every trip is counted.
func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: sec(10)})

	// Closed: failures below the threshold keep it closed; a success
	// resets the consecutive count.
	steps := []struct {
		at   time.Duration
		ok   bool
		want BreakerState
	}{
		{sec(1), false, StateClosed},
		{sec(2), false, StateClosed},
		{sec(3), true, StateClosed}, // resets the streak
		{sec(4), false, StateClosed},
		{sec(5), false, StateClosed},
		{sec(6), false, StateOpen}, // third consecutive failure trips
	}
	for _, s := range steps {
		if err := b.Allow(s.at); err != nil {
			t.Fatalf("Allow(%v) rejected while closed: %v", s.at, err)
		}
		b.Record(s.at, s.ok)
		if got := b.State(s.at); got != s.want {
			t.Fatalf("after Record(%v, %v): state %s, want %s", s.at, s.ok, got, s.want)
		}
	}

	// Open: rejects without calling.
	if err := b.Allow(sec(7)); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("Allow while open = %v, want ErrBreakerOpen", err)
	}

	// Open timeout elapses → half-open; the probe succeeds → closed.
	if got := b.State(sec(16)); got != StateHalfOpen {
		t.Fatalf("state after timeout = %s, want half-open", got)
	}
	if err := b.Allow(sec(16)); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Record(sec(16), true)
	if got := b.State(sec(16)); got != StateClosed {
		t.Fatalf("state after probe success = %s, want closed", got)
	}

	m := b.Metrics()
	if m.Trips != 1 || m.Probes != 1 || m.ProbeFailures != 0 || m.Rejections != 1 {
		t.Errorf("metrics = %+v", m)
	}
	// closed→open, open→half-open, half-open→closed: one of each.
	if got := transitionCounts(b); got != [3]int64{StateClosed: 1, StateOpen: 1, StateHalfOpen: 1} {
		t.Errorf("transitions by target (closed, open, half-open) = %v, want one each", got)
	}

	const cycles = 40 // three transitions each: open, half-open, closed
	for i := 0; i < cycles; i++ {
		at := sec(100 + 20*i)
		if err := b.Allow(at); err != nil {
			t.Fatalf("cycle %d: closed breaker rejected: %v", i, err)
		}
		for j := 0; j < 3; j++ {
			b.Record(at, false)
		}
		if err := b.Allow(at + sec(2)); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("cycle %d: open breaker admitted a call", i)
		}
		if err := b.Allow(at + sec(12)); err != nil {
			t.Fatalf("cycle %d: probe rejected: %v", i, err)
		}
		b.Record(at+sec(12), true)
		if got := b.State(at + sec(12)); got != StateClosed {
			t.Fatalf("cycle %d ends %s, want closed", i, got)
		}
	}
	if m := b.Metrics(); m.Trips != 1+cycles || m.Probes != 1+cycles || m.Rejections != 1+cycles {
		t.Errorf("after %d more cycles metrics = %+v", cycles, m)
	}
	if got := transitionCounts(b); got != [3]int64{StateClosed: 1 + cycles, StateOpen: 1 + cycles, StateHalfOpen: 1 + cycles} {
		t.Errorf("transitions by target after flapping = %v, want %d each", got, 1+cycles)
	}
}

// TestBreakerHalfOpenSingleProbe pins the half-open invariant: exactly
// one probe in flight; everyone else is rejected until it reports.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: sec(5)})
	if err := b.Allow(0); err != nil {
		t.Fatal(err)
	}
	b.Record(0, false) // trips immediately
	if got := b.State(sec(6)); got != StateHalfOpen {
		t.Fatalf("state = %s, want half-open", got)
	}

	if err := b.Allow(sec(6)); err != nil {
		t.Fatalf("first half-open caller must be admitted as probe: %v", err)
	}
	// While the probe is in flight, every other caller is rejected.
	for i := 0; i < 3; i++ {
		if err := b.Allow(sec(6)); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("concurrent half-open caller %d admitted alongside probe", i)
		}
	}
	m := b.Metrics()
	if m.Probes != 1 {
		t.Errorf("probes = %d, want exactly 1", m.Probes)
	}
	if m.Rejections != 3 {
		t.Errorf("rejections = %d, want 3", m.Rejections)
	}

	// Probe failure re-opens; the next timeout admits exactly one new probe.
	b.Record(sec(7), false)
	if got := b.State(sec(7)); got != StateOpen {
		t.Fatalf("state after probe failure = %s, want open", got)
	}
	m = b.Metrics()
	if m.ProbeFailures != 1 || m.Trips != 2 {
		t.Errorf("metrics after failed probe = %+v", m)
	}
	if err := b.Allow(sec(13)); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	b.Record(sec(13), true)
	if got := b.State(sec(13)); got != StateClosed {
		t.Fatalf("state after second probe success = %s, want closed", got)
	}
}

// TestBreakerDisabled: FailureThreshold 0 turns the breaker off entirely.
func TestBreakerDisabled(t *testing.T) {
	b := NewBreaker(BreakerConfig{})
	for i := 0; i < 100; i++ {
		if err := b.Allow(sec(i)); err != nil {
			t.Fatalf("disabled breaker rejected call %d", i)
		}
		b.Record(sec(i), false)
	}
	if got := b.State(sec(100)); got != StateClosed {
		t.Errorf("disabled breaker left closed state: %s", got)
	}
	if m := b.Metrics(); m != (BreakerMetrics{}) || transitionCounts(b) != [3]int64{} {
		t.Errorf("disabled breaker recorded activity: %+v", m)
	}
}

// TestBreakerStragglerAfterTrip: a Record arriving for a call admitted
// before the trip must not corrupt the open state.
func TestBreakerStragglerAfterTrip(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: sec(10)})
	b.Allow(0)
	b.Allow(0) // hypothetical concurrent call admitted while closed
	b.Record(0, false)
	if got := b.State(sec(1)); got != StateOpen {
		t.Fatalf("state = %s", got)
	}
	b.Record(sec(1), true) // straggler success must not close an open breaker
	if got := b.State(sec(1)); got != StateOpen {
		t.Errorf("straggler Record changed open state to %s", got)
	}
}

// TestBreakerAbandonFreesProbeSlot is the regression test for the
// half-open wedge: a probe whose caller gave up (context cancellation,
// query deadline, admission shed) used to leave probing=true forever,
// rejecting every subsequent call. Abandon must free the slot without
// recording a verdict either way.
func TestBreakerAbandonFreesProbeSlot(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: sec(5)})
	b.Allow(0)
	b.Record(0, false) // trip

	if err := b.Allow(sec(6)); err != nil {
		t.Fatalf("probe rejected: %v", err)
	}
	b.Abandon(sec(6)) // probe cancelled before the source answered
	if got := b.State(sec(6)); got != StateHalfOpen {
		t.Fatalf("state after abandoned probe = %s, want half-open", got)
	}
	// The slot must be free: the next caller is admitted as a fresh probe
	// instead of being rejected forever.
	if err := b.Allow(sec(7)); err != nil {
		t.Fatalf("breaker wedged: post-abandon probe rejected: %v", err)
	}
	b.Record(sec(7), true)
	if got := b.State(sec(7)); got != StateClosed {
		t.Fatalf("state after successful fresh probe = %s, want closed", got)
	}
	m := b.Metrics()
	if m.AbandonedProbes != 1 || m.Probes != 2 || m.ProbeFailures != 0 {
		t.Errorf("metrics = %+v, want 1 abandoned of 2 probes, 0 failures", m)
	}
}

// TestBreakerStaleVerdictAfterAbandon: once a probe is abandoned, a
// straggling Record for it (or for a call admitted while closed, arriving
// after the open→half-open advance) must not move the state machine —
// only an admitted, un-abandoned probe's verdict counts.
func TestBreakerStaleVerdictAfterAbandon(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: sec(5)})
	b.Allow(0)
	b.Record(0, false)

	if err := b.Allow(sec(6)); err != nil {
		t.Fatal(err)
	}
	b.Abandon(sec(6))
	b.Record(sec(6), true) // stale success: must not close the breaker
	if got := b.State(sec(6)); got != StateHalfOpen {
		t.Fatalf("stale success closed the breaker: %s", got)
	}
	b.Record(sec(6), false) // stale failure: must not re-open either
	if got := b.State(sec(6)); got != StateHalfOpen {
		t.Fatalf("stale failure moved the breaker: %s", got)
	}
	// Abandon outside half-open (closed breaker) is a no-op.
	b2 := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: sec(5)})
	b2.Abandon(0)
	if got := b2.State(0); got != StateClosed {
		t.Fatalf("abandon on closed breaker moved it: %s", got)
	}
}
