package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"hermes/internal/admission"
	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/engine"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// admissionProgram is a 4-way union: one query tries to take up to three
// extra lanes, so concurrent sessions contend for the pool.
const admissionProgram = `
	u(S) :- in(S, src:get('a')).
	u(S) :- in(S, src:get('b')).
	u(S) :- in(S, src:get('c')).
	u(S) :- in(S, src:get('d')).
`

// admissionSource builds the metered test source: get/1 returns one
// answer per call after 100ms of simulated latency.
func admissionSource() (*domaintest.Domain, *domaintest.Meter) {
	d := domaintest.New("src")
	d.Define("get", domaintest.Func{Arity: 1, PerCall: 100 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) {
			return []term.Value{args[0]}, nil
		}})
	return d, domaintest.Metered(d)
}

// TestParallelismNormalized is the regression test for -parallelism 0 and
// negative values: both must normalize to GOMAXPROCS in core.NewSystem,
// never reach domain.NewSched raw (a raw 0 yields a scheduler that can
// never grant a lane while the docs promise GOMAXPROCS).
func TestParallelismNormalized(t *testing.T) {
	want := runtime.GOMAXPROCS(0)
	for _, p := range []int{0, -1, -100} {
		sys := NewSystem(Options{Parallelism: p})
		if got := sys.Ctx().Sched.Limit(); got != want {
			t.Errorf("Parallelism %d: scheduler limit = %d, want GOMAXPROCS (%d)", p, got, want)
		}
	}
	sys := NewSystem(Options{Parallelism: 3})
	if got := sys.Ctx().Sched.Limit(); got != 3 {
		t.Errorf("explicit Parallelism 3: limit = %d", got)
	}
}

// TestAdmitCtxWithoutPool: a system built without MaxInflightCalls admits
// every session on a free-standing scheduler and never fails.
func TestAdmitCtxWithoutPool(t *testing.T) {
	sys := NewSystem(Options{Parallelism: 2, QueryDeadline: time.Minute})
	ctx, release, err := sys.AdmitCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.Sched.Limit() != 2 || ctx.Sched.Lease() != nil {
		t.Fatalf("unmanaged session: limit=%d lease=%v", ctx.Sched.Limit(), ctx.Sched.Lease())
	}
	if ctx.Deadline != time.Minute {
		t.Fatalf("deadline = %s", ctx.Deadline)
	}
	ctx.Clock.Sleep(7 * time.Second)
	release()
	if sys.Clock.Now() != 7*time.Second {
		t.Fatalf("release did not join session clock: system at %s", sys.Clock.Now())
	}
}

// TestAdmissionBoundsConcurrentSessions is the acceptance test: 8
// concurrent sessions against a pool of 4 lanes. The metered source must
// never see more than 4 concurrent calls, every session must complete
// with the full answer set (no starvation), and the pool must drain back
// to zero occupancy.
func TestAdmissionBoundsConcurrentSessions(t *testing.T) {
	const (
		sessions = 8
		maxLanes = 4
	)
	_, meter := admissionSource()
	o := obs.NewObserver()
	sys := NewSystem(Options{
		DisableCIM:       true,
		Parallelism:      4,
		MaxInflightCalls: maxLanes,
		Obs:              o,
	})
	sys.Register(meter)
	if err := sys.LoadProgram(admissionProgram); err != nil {
		t.Fatal(err)
	}
	plans, err := sys.Plans("?- u(S).")
	if err != nil || len(plans) == 0 {
		t.Fatalf("plans: %v, %v", plans, err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, release, err := sys.AdmitCtx(context.Background(), 1)
			if err != nil {
				errs <- fmt.Errorf("session %d: admit: %w", i, err)
				return
			}
			defer release()
			cur, err := sys.ExecuteCtx(ctx, plans[0])
			if err != nil {
				errs <- fmt.Errorf("session %d: execute: %w", i, err)
				return
			}
			answers, _, err := engine.CollectAll(cur)
			if err != nil {
				errs <- fmt.Errorf("session %d: collect: %w", i, err)
				return
			}
			if len(answers) != 4 {
				errs <- fmt.Errorf("session %d starved: %d answers, want 4", i, len(answers))
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if got := meter.Peak(); got > maxLanes {
		t.Errorf("source observed %d concurrent calls, bound is %d", got, maxLanes)
	}
	if got := meter.Total(); got != sessions*4 {
		t.Errorf("source saw %d calls, want %d", got, sessions*4)
	}
	st := sys.Admission.Stats()
	if st.Peak > maxLanes {
		t.Errorf("pool peak %d exceeds capacity %d", st.Peak, maxLanes)
	}
	if st.Occupancy != 0 || st.Waiting != 0 {
		t.Errorf("pool not drained: %+v", st)
	}
	if st.Shed != 0 {
		t.Errorf("wait policy shed %d sessions", st.Shed)
	}
	if got := o.Gauge("hermes_admission_inflight_lanes").Value(); got != 0 {
		t.Errorf("inflight gauge = %v after drain", got)
	}
}

// TestAdmissionShedFailsFast: under PolicyShed a session arriving at a
// saturated pool fails with ErrOverloaded before any source call and
// without consuming any virtual time — it must not time out at a source.
func TestAdmissionShedFailsFast(t *testing.T) {
	_, meter := admissionSource()
	sys := NewSystem(Options{
		DisableCIM:       true,
		Parallelism:      2,
		MaxInflightCalls: 1,
		ShedPolicy:       admission.PolicyShed,
	})
	sys.Register(meter)

	_, release, err := sys.AdmitCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	callsBefore := meter.Total()
	before := sys.Clock.Now()
	if _, _, err := sys.AdmitCtx(context.Background(), 1); !domain.IsOverloaded(err) {
		t.Fatalf("second admit: err = %v, want ErrOverloaded", err)
	}
	if meter.Total() != callsBefore {
		t.Error("shed session reached the source")
	}
	if sys.Clock.Now() != before {
		t.Errorf("shed consumed %s of virtual time", sys.Clock.Now()-before)
	}
	if st := sys.Admission.Stats(); st.Shed != 1 {
		t.Errorf("stats = %+v, want Shed=1", st)
	}
	release()
	ctx, release2, err := sys.AdmitCtx(context.Background(), 1)
	if err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	if ctx.Sched.Lease() == nil {
		t.Error("admitted session has no pool lease")
	}
	release2()
}

// TestAdmitCtxWaitChargesVirtualTime: a session queued under PolicyWait
// is granted its lane at the virtual-clock reading where the lane
// actually freed, so waiting for admission costs virtual time exactly
// like waiting on a slow source.
func TestAdmitCtxWaitChargesVirtualTime(t *testing.T) {
	sys := NewSystem(Options{
		DisableCIM:       true,
		Parallelism:      1,
		MaxInflightCalls: 1,
	})
	ctxA, releaseA, err := sys.AdmitCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	type res struct {
		now  time.Duration
		wait time.Duration
	}
	done := make(chan res, 1)
	go func() {
		ctxB, releaseB, err := sys.AdmitCtx(context.Background(), 1)
		if err != nil {
			panic(err)
		}
		defer releaseB()
		lease := ctxB.Sched.Lease().(*admission.Lease)
		done <- res{now: ctxB.Clock.Now(), wait: lease.Waited()}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sys.Admission.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("session B never queued")
		}
		time.Sleep(200 * time.Microsecond)
	}

	// Session A runs for 250ms of virtual time, then finishes.
	ctxA.Clock.Sleep(250 * time.Millisecond)
	releaseA()

	r := <-done
	if r.now < 250*time.Millisecond {
		t.Errorf("session B clock = %s after waiting, want >= 250ms", r.now)
	}
	if r.wait < 250*time.Millisecond {
		t.Errorf("session B recorded wait = %s, want >= 250ms", r.wait)
	}
}

// TestAdmitCtxAbandonedByCancellation: cancelling the Go context while
// queued unblocks AdmitCtx with the context's error and the pool stays
// consistent.
func TestAdmitCtxAbandonedByCancellation(t *testing.T) {
	sys := NewSystem(Options{
		DisableCIM:       true,
		Parallelism:      1,
		MaxInflightCalls: 1,
	})
	_, releaseA, err := sys.AdmitCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	gc, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, _, err := sys.AdmitCtx(gc, 1)
		errc <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for sys.Admission.Stats().Waiting != 1 {
		if time.Now().After(deadline) {
			t.Fatal("session never queued")
		}
		time.Sleep(200 * time.Microsecond)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("abandoned admit: err = %v, want context.Canceled", err)
	}
	releaseA()
	if st := sys.Admission.Stats(); st.Occupancy != 0 || st.Waiting != 0 {
		t.Fatalf("pool inconsistent after abandoned wait: %+v", st)
	}
}
