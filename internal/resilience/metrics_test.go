package resilience

import (
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/vclock"
)

// TestRetriesCountEveryRepeatAttempt: "retries" has one meaning — every
// attempt after the first, whether or not the call finally succeeded. A
// source failing MaxAttempts times in a row leaves both the struct field
// and hermes_call_retries_total at MaxAttempts-1; at the parent the
// exported counter only counted retries of calls that recovered, so an
// outage read 0.
func TestRetriesCountEveryRepeatAttempt(t *testing.T) {
	p := testPolicy()
	p.Breaker = BreakerConfig{} // keep the breaker out of the way
	w := Wrap(&flaky{vals: vals(1), failSetup: 1 << 30}, p)
	o := obs.NewObserver()
	w.SetObserver(o)
	if _, err := w.Call(domain.NewCtx(vclock.NewVirtual(0)), "get", nil); err == nil {
		t.Fatal("call against a dead source succeeded")
	}
	want := p.MaxAttempts - 1
	if got := w.Metrics().Retries; got != want {
		t.Errorf("Metrics().Retries = %d, want %d", got, want)
	}
	if got := o.Counter("hermes_call_retries_total", "domain", "flaky").Value(); got != int64(want) {
		t.Errorf("hermes_call_retries_total = %d, want %d", got, want)
	}
}

// renamed gives a flaky source its own domain label.
type renamed struct {
	*flaky
	name string
}

func (r renamed) Name() string { return r.name }

// TestExportedFamiliesEqualMetrics drives retries, per-call timeouts, a
// resumed stream, a breaker trip with fast rejections and a half-open
// recovery through wrappers reporting into one observer, then checks every
// exported family against the Metrics field (or breaker state sequence) it
// shares a tally with, read by name under the wrapper's domain label. A handle
// declared but never attached leaves its family at zero and fails here.
func TestExportedFamiliesEqualMetrics(t *testing.T) {
	o := obs.NewObserver()
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	check := func(w *Wrapper, name string, want int, labels ...string) {
		t.Helper()
		labels = append([]string{"domain", w.Name()}, labels...)
		got := o.Counter(name, labels...).Value()
		if got != int64(want) || got == 0 {
			t.Errorf("%s%v = %d, the wrapper says %d (and the workload must move it)", name, labels, got, want)
		}
	}

	// Retries and a mid-stream resume.
	p := testPolicy()
	w := Wrap(&flaky{vals: vals(5), failSetup: 2, truncateCalls: 1, truncAt: 2}, p)
	w.SetObserver(o)
	s, err := w.Call(ctx, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := domain.Collect(s); err != nil || len(got) != 5 {
		t.Fatalf("collect = %v, %v", got, err)
	}
	check(w, "hermes_call_retries_total", w.Metrics().Retries)
	check(w, "hermes_stream_resumes_total", w.Metrics().StreamResumes)

	// Timeouts, then a breaker trip, fast rejections and a recovery.
	p = testPolicy()
	p.MaxAttempts, p.CallTimeout = 1, time.Second
	p.Breaker = BreakerConfig{FailureThreshold: 2, OpenTimeout: 10 * time.Second}
	slow := &flaky{vals: vals(1), perCall: 10 * time.Second}
	b := Wrap(renamed{slow, "slow"}, p)
	b.SetObserver(o)
	for i := 0; i < 3; i++ { // two timeouts trip the breaker, the third call is rejected
		if _, err := b.Call(ctx, "get", nil); err == nil {
			t.Fatalf("call %d against the slow source succeeded", i)
		}
	}
	if got := o.Metrics.Gauge("hermes_breaker_state", "domain", "slow").Value(); got != 1 {
		t.Errorf("hermes_breaker_state = %g with the breaker open, want 1", got)
	}
	slow.perCall = 0
	ctx.Clock.Sleep(11 * time.Second) // past the open timeout: the next call probes and closes
	if _, err := b.Call(ctx, "get", nil); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if got := o.Metrics.Gauge("hermes_breaker_state", "domain", "slow").Value(); got != 0 {
		t.Errorf("hermes_breaker_state = %g after recovery, want 0", got)
	}
	check(b, "hermes_call_timeouts_total", b.Metrics().Timeouts)
	check(b, "hermes_breaker_rejections_total", b.Metrics().BreakerRejections)
	// closed→open (the trip), open→half-open and half-open→closed (the
	// recovering probe).
	to := map[BreakerState]int{StateOpen: b.Breaker().Metrics().Trips, StateHalfOpen: 1, StateClosed: 1}
	for _, st := range []BreakerState{StateClosed, StateOpen, StateHalfOpen} {
		check(b, "hermes_breaker_transitions_total", to[st], "to", st.String())
	}
}
