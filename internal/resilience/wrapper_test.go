package resilience

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// flaky is a scriptable domain for the wrapper tests: it fails the first
// failSetup calls with a retryable error, then serves vals; the first
// truncateCalls successful streams cut off after truncAt answers with a
// retryable mid-stream error.
type flaky struct {
	vals          []term.Value
	failSetup     int
	truncateCalls int
	truncAt       int
	perCall       time.Duration

	calls int
}

func (f *flaky) Name() string { return "flaky" }
func (f *flaky) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "get", Arity: 0}}
}

func (f *flaky) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	f.calls++
	ctx.Clock.Sleep(f.perCall)
	if f.calls <= f.failSetup {
		return nil, fmt.Errorf("%w: flaky setup failure %d", domain.ErrUnavailable, f.calls)
	}
	s := domain.NewSliceStream(f.vals)
	if f.calls <= f.failSetup+f.truncateCalls {
		return &cutStream{inner: s, after: f.truncAt}, nil
	}
	return s, nil
}

type cutStream struct {
	inner domain.Stream
	after int
}

func (s *cutStream) Next() (term.Value, bool, error) {
	if s.after <= 0 {
		return nil, false, fmt.Errorf("%w: connection dropped", domain.ErrUnavailable)
	}
	s.after--
	return s.inner.Next()
}
func (s *cutStream) Close() error { return s.inner.Close() }

func vals(n int) []term.Value {
	out := make([]term.Value, n)
	for i := range out {
		out[i] = term.Int(int64(i))
	}
	return out
}

func testPolicy() Policy {
	return Policy{
		MaxAttempts: 4,
		BackoffBase: 50 * time.Millisecond,
		BackoffCap:  time.Second,
		Seed:        1,
		Breaker:     BreakerConfig{FailureThreshold: 5, OpenTimeout: 30 * time.Second},
	}
}

func TestWrapperRetriesTransientFailures(t *testing.T) {
	src := &flaky{vals: vals(3), failSetup: 2}
	w := Wrap(src, testPolicy())
	ctx := domain.NewCtx(vclock.NewVirtual(0))

	s, err := w.Call(ctx, "get", nil)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	got, err := domain.Collect(s)
	if err != nil || len(got) != 3 {
		t.Fatalf("collect = %v, %v", got, err)
	}
	m := w.Metrics()
	if m.Attempts != 3 || m.Retries != 2 || m.Successes != 1 || m.Failures != 0 {
		t.Errorf("metrics = %+v", m)
	}
	if m.BackoffTotal <= 0 {
		t.Errorf("no backoff charged: %+v", m)
	}
	if ctx.Clock.Now() < m.BackoffTotal {
		t.Errorf("backoff %v not charged to the execution clock (now %v)", m.BackoffTotal, ctx.Clock.Now())
	}
}

// TestWrapperBackoffKeyedByCall: the wrapper builds the jitter key only
// when a retry needs a delay, and the delays are exactly those of a
// Backoff keyed by the call up front.
func TestWrapperBackoffKeyedByCall(t *testing.T) {
	src := &flaky{vals: vals(1), failSetup: 2}
	pol := testPolicy()
	w := Wrap(src, pol)
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	args := []term.Value{term.Str("x"), term.Int(7)}
	s, err := w.Call(ctx, "get", args)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if _, err := domain.Collect(s); err != nil {
		t.Fatal(err)
	}
	call := domain.Call{Domain: "flaky", Function: "get", Args: args}
	bo := Backoff{Base: pol.BackoffBase, Cap: pol.BackoffCap, Seed: pol.Seed, Key: call.Key()}
	d1 := bo.Delay(1, 0)
	want := d1 + bo.Delay(2, d1)
	if m := w.Metrics(); m.Retries != 2 || m.BackoffTotal != want {
		t.Errorf("retries %d, backoff %v; want 2 retries, %v", m.Retries, m.BackoffTotal, want)
	}
	if now := ctx.Clock.Now(); now != want {
		t.Errorf("clock reads %v after two retries, want the delays' sum %v", now, want)
	}
}

func TestWrapperDoesNotRetryNonRetryable(t *testing.T) {
	src := domainFunc{name: "strict", err: errors.New("type error: arg must be int")}
	w := Wrap(src, testPolicy())
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	_, err := w.Call(ctx, "get", nil)
	if err == nil || domain.IsRetryable(err) {
		t.Fatalf("err = %v", err)
	}
	m := w.Metrics()
	if m.Attempts != 1 || m.Retries != 0 {
		t.Errorf("non-retryable error was retried: %+v", m)
	}
	// The source answered; the breaker must not count it as a failure.
	if w.Breaker().State(ctx.Clock.Now()) != StateClosed {
		t.Error("non-retryable error affected the breaker")
	}
}

// domainFunc is a single-function domain that always errors.
type domainFunc struct {
	name string
	err  error
}

func (d domainFunc) Name() string                 { return d.name }
func (d domainFunc) Functions() []domain.FuncSpec { return []domain.FuncSpec{{Name: "get"}} }
func (d domainFunc) Call(*domain.Ctx, string, []term.Value) (domain.Stream, error) {
	return nil, d.err
}

func TestWrapperBreakerTripsAndFastRejects(t *testing.T) {
	p := testPolicy()
	p.MaxAttempts = 1
	p.Breaker = BreakerConfig{FailureThreshold: 3, OpenTimeout: 10 * time.Second}
	src := &flaky{vals: vals(1), failSetup: 1 << 30} // never recovers
	w := Wrap(src, p)
	ctx := domain.NewCtx(vclock.NewVirtual(0))

	for i := 0; i < 3; i++ {
		if _, err := w.Call(ctx, "get", nil); err == nil {
			t.Fatalf("call %d unexpectedly succeeded", i)
		}
	}
	if w.Breaker().State(ctx.Clock.Now()) != StateOpen {
		t.Fatalf("breaker not open after %d failures", 3)
	}

	// Open breaker: rejected without reaching the source, still typed
	// retryable so the CIM can degrade.
	before := src.calls
	at := ctx.Clock.Now()
	_, err := w.Call(ctx, "get", nil)
	if !errors.Is(err, domain.ErrUnavailable) || !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open-breaker error = %v, want ErrUnavailable wrapping ErrBreakerOpen", err)
	}
	if src.calls != before {
		t.Error("rejected call reached the source")
	}
	if ctx.Clock.Now() != at {
		t.Errorf("fast rejection charged %v of clock", ctx.Clock.Now()-at)
	}
	if m := w.Metrics(); m.BreakerRejections != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestWrapperRespectsQueryDeadline(t *testing.T) {
	p := testPolicy()
	p.BackoffBase = 500 * time.Millisecond
	src := &flaky{vals: vals(1), failSetup: 1 << 30, perCall: 100 * time.Millisecond}
	w := Wrap(src, p)
	ctx := domain.NewCtx(vclock.NewVirtual(0)).WithDeadline(300 * time.Millisecond)

	_, err := w.Call(ctx, "get", nil)
	if err == nil {
		t.Fatal("expected failure")
	}
	// The wrapper must give up rather than back off past the deadline: the
	// clock stays within the budget so the caller can still degrade.
	if now, dl := ctx.Clock.Now(), 300*time.Millisecond; now > dl {
		t.Errorf("retry loop ran to %v, past the %v deadline", now, dl)
	}
	if m := w.Metrics(); m.Attempts != 1 {
		t.Errorf("expected a single attempt within the budget, got %+v", m)
	}
}

func TestWrapperPerCallTimeout(t *testing.T) {
	p := testPolicy()
	p.MaxAttempts = 2
	p.CallTimeout = time.Second
	src := &flaky{vals: vals(1), perCall: 10 * time.Second} // pathologically slow
	w := Wrap(src, p)
	ctx := domain.NewCtx(vclock.NewVirtual(0))

	_, err := w.Call(ctx, "get", nil)
	if !errors.Is(err, ErrCallTimeout) || !errors.Is(err, domain.ErrUnavailable) {
		t.Fatalf("err = %v, want ErrCallTimeout wrapped in ErrUnavailable", err)
	}
	m := w.Metrics()
	if m.Timeouts != 2 {
		t.Errorf("timeouts = %d, want 2", m.Timeouts)
	}
	// Each abandoned attempt charges exactly the timeout, not the
	// source's 10 s: total = 2 timeouts + one backoff.
	max := 2*time.Second + p.BackoffCap
	if now := ctx.Clock.Now(); now > max {
		t.Errorf("clock = %v, want at most %v (timeout charged, not source latency)", now, max)
	}
}

func TestWrapperResumesTruncatedStream(t *testing.T) {
	src := &flaky{vals: vals(5), truncateCalls: 1, truncAt: 2}
	w := Wrap(src, Policy{MaxAttempts: 2, BackoffBase: 10 * time.Millisecond, Seed: 3})
	ctx := domain.NewCtx(vclock.NewVirtual(0))

	s, err := w.Call(ctx, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := domain.Collect(s)
	if err != nil {
		t.Fatalf("resumed stream failed: %v", err)
	}
	// The full answer set, exactly once: the resume replays the source
	// stream and drops the prefix delivered before the cut.
	if len(got) != 5 {
		t.Fatalf("got %d answers, want 5: %v", len(got), got)
	}
	seen := map[string]bool{}
	for _, v := range got {
		k := v.Key()
		if seen[k] {
			t.Errorf("duplicate answer %v after resume", v)
		}
		seen[k] = true
	}
	if m := w.Metrics(); m.StreamResumes != 1 {
		t.Errorf("metrics = %+v", m)
	}
}

// TestResumeKeepsDuplicateAnswers: a resume skips the delivered prefix by
// count, not by value, so an answer the source emits more than once keeps
// its multiplicity across a cut — including a second cut inside the replay.
func TestResumeKeepsDuplicateAnswers(t *testing.T) {
	want := []term.Value{term.Int(1), term.Int(1), term.Int(2), term.Int(1)}
	for _, cuts := range []int{1, 2} {
		src := &flaky{vals: want, truncateCalls: cuts, truncAt: 1}
		w := Wrap(src, Policy{MaxAttempts: 1, Seed: 3})
		s, err := w.Call(domain.NewCtx(vclock.NewVirtual(0)), "get", nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := domain.Collect(s)
		if err != nil {
			t.Fatalf("%d cuts: resumed stream failed: %v", cuts, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%d cuts: got %v, want %v", cuts, got, want)
		}
		for i := range want {
			if !term.Equal(got[i], want[i]) {
				t.Fatalf("%d cuts: got %v, want %v", cuts, got, want)
			}
		}
	}
}

func TestWrapperResumeExhaustionSurfacesError(t *testing.T) {
	// Every stream truncates: the cut after the last of maxResumes
	// re-issues surfaces.
	src := &flaky{vals: vals(5), truncateCalls: 1 << 30, truncAt: 2}
	w := Wrap(src, Policy{MaxAttempts: 1, Seed: 3})
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	s, err := w.Call(ctx, "get", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = domain.Collect(s)
	if !errors.Is(err, domain.ErrUnavailable) {
		t.Fatalf("exhausted resume = %v, want retryable error", err)
	}
	if m := w.Metrics(); m.StreamResumes != maxResumes {
		t.Errorf("metrics = %+v", m)
	}
}

func TestWrapperTransparency(t *testing.T) {
	src := &flaky{vals: vals(1)}
	w := Wrap(src, DefaultPolicy())
	if w.Name() != "flaky" {
		t.Errorf("Name = %q", w.Name())
	}
	if len(w.Functions()) != 1 {
		t.Errorf("Functions = %v", w.Functions())
	}
	if w.Inner() != domain.Domain(src) {
		t.Error("Inner does not return the wrapped domain")
	}
	specs, err := w.FunctionsErr()
	if err != nil || len(specs) != 1 {
		t.Errorf("FunctionsErr = %v, %v", specs, err)
	}
}

// moodyDomain fails, succeeds, or cancels the caller's context depending
// on its mode, so a test can walk the breaker through trip → probe →
// verdict with full control of each call's outcome.
type moodyDomain struct {
	mode   string // "fail", "ok", "cancel", "overload"
	cancel context.CancelFunc
	calls  int
}

func (d *moodyDomain) Name() string { return "moody" }
func (d *moodyDomain) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "get", Arity: 0}}
}

func (d *moodyDomain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	d.calls++
	switch d.mode {
	case "fail":
		return nil, fmt.Errorf("%w: moody outage", domain.ErrUnavailable)
	case "cancel":
		// The caller hangs up mid-call: cancel the context and surface its
		// error, exactly what a remote dial aborted by cancellation does.
		d.cancel()
		return nil, ctx.Context.Err()
	case "overload":
		return nil, fmt.Errorf("admission shed: %w (%w)", domain.ErrOverloaded, domain.ErrUnavailable)
	default:
		return domain.NewSliceStream(vals(1)), nil
	}
}

// TestWrapperAbandonedProbeDoesNotWedgeBreaker is the vclock regression
// test for the half-open wedge: a probe call abandoned by context
// cancellation must neither close the breaker (the old behaviour — the
// cancellation error is non-retryable, so it was recorded as a success)
// nor leave the probe slot taken forever. The breaker stays half-open
// with a free slot, and the next call probes normally.
func TestWrapperAbandonedProbeDoesNotWedgeBreaker(t *testing.T) {
	src := &moodyDomain{mode: "fail"}
	p := Policy{
		MaxAttempts: 1,
		Breaker:     BreakerConfig{FailureThreshold: 1, OpenTimeout: 5 * time.Second},
	}
	w := Wrap(src, p)
	clk := vclock.NewVirtual(0)

	// Trip the breaker.
	if _, err := w.Call(domain.NewCtx(clk), "get", nil); err == nil {
		t.Fatal("tripping call should fail")
	}
	if got := w.Breaker().State(clk.Now()); got != StateOpen {
		t.Fatalf("state = %s, want open", got)
	}

	// Past the open timeout, issue the probe — and cancel it mid-call.
	clk.Sleep(6 * time.Second)
	gc, cancel := context.WithCancel(context.Background())
	src.mode, src.cancel = "cancel", cancel
	probe := domain.NewCtx(clk)
	probe.Context = gc
	if _, err := w.Call(probe, "get", nil); err == nil {
		t.Fatal("cancelled probe should fail")
	}

	// Old bug #1: the cancellation was recorded as success, closing the
	// breaker off a probe that never reached the source.
	if got := w.Breaker().State(clk.Now()); got != StateHalfOpen {
		t.Fatalf("state after abandoned probe = %s, want half-open", got)
	}
	// Old bug #2 (the wedge): probing stayed true, so every later call
	// was rejected. A fresh caller must be admitted as the new probe.
	src.mode = "ok"
	s, err := w.Call(domain.NewCtx(clk), "get", nil)
	if err != nil {
		t.Fatalf("breaker wedged half-open: %v", err)
	}
	if _, err := domain.Collect(s); err != nil {
		t.Fatal(err)
	}
	if got := w.Breaker().State(clk.Now()); got != StateClosed {
		t.Fatalf("state after successful fresh probe = %s, want closed", got)
	}
	if m := w.Breaker().Metrics(); m.AbandonedProbes != 1 {
		t.Errorf("AbandonedProbes = %d, want 1", m.AbandonedProbes)
	}
}

// TestWrapperOverloadFailsFast: an admission shed (ErrOverloaded) must
// not be retried — retrying into an overloaded server deepens the
// overload — and must not charge the breaker, even though the error also
// wraps ErrUnavailable for the CIM's degrade-to-cache path.
func TestWrapperOverloadFailsFast(t *testing.T) {
	src := &moodyDomain{mode: "overload"}
	p := testPolicy()
	w := Wrap(src, p)
	ctx := domain.NewCtx(vclock.NewVirtual(0))

	start := ctx.Clock.Now()
	_, err := w.Call(ctx, "get", nil)
	if !domain.IsOverloaded(err) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if src.calls != 1 {
		t.Fatalf("overloaded call attempted %d times, want 1 (no retry)", src.calls)
	}
	if ctx.Clock.Now() != start {
		t.Fatalf("overload charged %s of backoff, want none", ctx.Clock.Now()-start)
	}
	if got := w.Breaker().State(ctx.Clock.Now()); got != StateClosed {
		t.Fatalf("overload affected the breaker: %s", got)
	}
	m := w.Metrics()
	if m.Attempts != 1 || m.Retries != 0 || m.Failures != 1 {
		t.Errorf("metrics = %+v", m)
	}
}
