package resilience

import (
	"errors"
	"testing"
	"time"
)

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

// TestBreakerLifecycle drives the full closed→open→half-open→closed cycle
// and checks every transition and counter along the way.
func TestBreakerLifecycle(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 3, OpenTimeout: sec(10), HalfOpenSuccesses: 1})

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
	wantTransitions := []Transition{
		{At: sec(6), From: StateClosed, To: StateOpen},
		{At: sec(16), From: StateOpen, To: StateHalfOpen},
		{At: sec(16), From: StateHalfOpen, To: StateClosed},
	}
	if len(m.Transitions) != len(wantTransitions) {
		t.Fatalf("transitions = %v, want %v", m.Transitions, wantTransitions)
	}
	for i, tr := range m.Transitions {
		if tr != wantTransitions[i] {
			t.Errorf("transition %d = %v, want %v", i, tr, wantTransitions[i])
		}
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

// TestBreakerHalfOpenSuccessQuota checks HalfOpenSuccesses > 1: the
// breaker closes only after the configured number of consecutive
// successful probes.
func TestBreakerHalfOpenSuccessQuota(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: sec(1), HalfOpenSuccesses: 2})
	b.Allow(0)
	b.Record(0, false)

	if err := b.Allow(sec(2)); err != nil {
		t.Fatal(err)
	}
	b.Record(sec(2), true)
	if got := b.State(sec(2)); got != StateHalfOpen {
		t.Fatalf("one of two successes should keep it half-open, got %s", got)
	}
	if err := b.Allow(sec(3)); err != nil {
		t.Fatal(err)
	}
	b.Record(sec(3), true)
	if got := b.State(sec(3)); got != StateClosed {
		t.Fatalf("second success should close, got %s", got)
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
	if m := b.Metrics(); m.Trips != 0 || len(m.Transitions) != 0 {
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

// TestBreakerTransitionHistoryIsBounded flaps a breaker far past the
// history bound: only the newest maxTransitions changes stay, in clock
// order, while the trip count keeps the total.
func TestBreakerTransitionHistoryIsBounded(t *testing.T) {
	b := NewBreaker(BreakerConfig{FailureThreshold: 1, OpenTimeout: sec(1)})
	const cycles = 40 // three transitions each: open, half-open, closed
	for i := 0; i < cycles; i++ {
		at := sec(10 * i)
		if err := b.Allow(at); err != nil {
			t.Fatalf("cycle %d: closed breaker rejected: %v", i, err)
		}
		b.Record(at, false) // trips
		if err := b.Allow(at + sec(2)); err != nil {
			t.Fatalf("cycle %d: probe rejected: %v", i, err)
		}
		b.Record(at+sec(2), true) // closes
	}
	m := b.Metrics()
	if m.Trips != cycles {
		t.Errorf("trips = %d, want %d", m.Trips, cycles)
	}
	if len(m.Transitions) != maxTransitions || cap(b.metrics.Transitions) > 2*maxTransitions {
		t.Fatalf("history holds %d (cap %d), want %d", len(m.Transitions), cap(b.metrics.Transitions), maxTransitions)
	}
	last := m.Transitions[maxTransitions-1]
	if want := (Transition{At: sec(10*(cycles-1) + 2), From: StateHalfOpen, To: StateClosed}); last != want {
		t.Errorf("newest transition = %v, want %v", last, want)
	}
	for i := 1; i < maxTransitions; i++ {
		if m.Transitions[i].At < m.Transitions[i-1].At || m.Transitions[i].From != m.Transitions[i-1].To {
			t.Errorf("history out of order at %d: %v then %v", i, m.Transitions[i-1], m.Transitions[i])
		}
	}
}
