package admission

import (
	"sync"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
)

// fixedNow returns a now func pinned at t.
func fixedNow(t time.Duration) func() time.Duration {
	return func() time.Duration { return t }
}

func TestParsePolicy(t *testing.T) {
	if p, err := ParsePolicy("wait"); err != nil || p != PolicyWait {
		t.Fatalf("ParsePolicy(wait) = %v, %v", p, err)
	}
	if p, err := ParsePolicy("shed"); err != nil || p != PolicyShed {
		t.Fatalf("ParsePolicy(shed) = %v, %v", p, err)
	}
	if _, err := ParsePolicy("drop"); err == nil {
		t.Fatal("ParsePolicy(drop) should fail")
	}
	if PolicyWait.String() != "wait" || PolicyShed.String() != "shed" {
		t.Fatal("Policy.String mismatch")
	}
}

func TestPoolCapacityBound(t *testing.T) {
	p := NewPool(Config{MaxInflight: 3, Policy: PolicyShed})
	now := fixedNow(0)
	var leases []*Lease
	for i := 0; i < 3; i++ {
		l, err := p.Admit(1, now, nil)
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		leases = append(leases, l)
	}
	if _, err := p.Admit(1, now, nil); !domain.IsOverloaded(err) {
		t.Fatalf("4th admit on full pool: err = %v, want ErrOverloaded", err)
	}
	// The shed error must also look unavailable so a CIM can degrade to
	// cache, and must be retryable-classified consistently.
	if _, err := p.Admit(1, now, nil); !domain.IsRetryable(err) {
		t.Fatal("shed error must wrap ErrUnavailable")
	}
	st := p.Stats()
	if st.Occupancy != 3 || st.Peak != 3 || st.Shed != 2 || st.Granted != 3 {
		t.Fatalf("stats = %+v", st)
	}
	leases[0].Close()
	if got := p.Stats().Occupancy; got != 2 {
		t.Fatalf("occupancy after close = %d, want 2", got)
	}
	l, err := p.Admit(1, now, nil)
	if err != nil {
		t.Fatalf("admit after close: %v", err)
	}
	l.Close()
	leases[1].Close()
	leases[2].Close()
	if got := p.Stats().Occupancy; got != 0 {
		t.Fatalf("final occupancy = %d, want 0", got)
	}
}

func TestSingleSessionGetsFullCapacity(t *testing.T) {
	p := NewPool(Config{MaxInflight: 8})
	l, err := p.Admit(1, fixedNow(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.TryLease(10); got != 7 {
		t.Fatalf("single session TryLease(10) = %d, want 7 (capacity-1)", got)
	}
	if l.Held() != 8 {
		t.Fatalf("held = %d, want 8", l.Held())
	}
	l.Close()
	if got := p.Stats().Occupancy; got != 0 {
		t.Fatalf("occupancy after close = %d, want 0", got)
	}
}

func TestWeightedFairShare(t *testing.T) {
	// Capacity 8, two sessions with weights 3 and 1: shares 6 and 2.
	p := NewPool(Config{MaxInflight: 8})
	now := fixedNow(0)
	heavy, err := p.Admit(3, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	light, err := p.Admit(1, now, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := heavy.TryLease(10); got != 5 {
		t.Fatalf("heavy TryLease(10) = %d, want 5 (share 6 incl. implicit)", got)
	}
	if got := light.TryLease(10); got != 1 {
		t.Fatalf("light TryLease(10) = %d, want 1 (share 2 incl. implicit)", got)
	}
	// Pool now holds 8: nothing left even within share.
	if got := heavy.TryLease(1); got != 0 {
		t.Fatalf("heavy over-share TryLease = %d, want 0", got)
	}
	// Light returns its extra; heavy is at its share of 6 and may not take
	// the freed lane, but light may take it back within its own share.
	light.Return(1)
	if got := heavy.TryLease(5); got != 0 {
		t.Fatalf("heavy TryLease(5) past share = %d, want 0 (share cap)", got)
	}
	if got := light.TryLease(5); got != 1 {
		t.Fatalf("light TryLease(5) within share = %d, want 1", got)
	}
	heavy.Close()
	light.Close()
}

func TestFairShareNeverBelowOne(t *testing.T) {
	// 16 equal sessions on a 4-lane pool would compute share 0; the floor
	// of 1 keeps every admitted session runnable.
	p := NewPool(Config{MaxInflight: 4})
	now := fixedNow(0)
	var leases []*Lease
	for i := 0; i < 4; i++ {
		l, err := p.Admit(1, now, nil)
		if err != nil {
			t.Fatal(err)
		}
		leases = append(leases, l)
	}
	for i, l := range leases {
		if got := l.TryLease(3); got != 0 {
			t.Fatalf("session %d leased %d extras on a full pool", i, got)
		}
	}
	for _, l := range leases {
		l.Close()
	}
}

func TestWaitPolicyFIFOAndVtime(t *testing.T) {
	p := NewPool(Config{MaxInflight: 1, Policy: PolicyWait})
	first, err := p.Admit(1, fixedNow(0), nil)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		lease *Lease
		err   error
		order int
	}
	results := make(chan result, 2)
	var admitted sync.WaitGroup
	admitted.Add(2)
	for i := 0; i < 2; i++ {
		i := i
		go func() {
			// Poll until this goroutine is queued, then signal.
			l, err := p.Admit(1, fixedNow(time.Duration(i)*time.Millisecond), nil)
			results <- result{l, err, i}
			admitted.Done()
		}()
		// Wait for the waiter to be queued before launching the next, so
		// FIFO order is deterministic.
		waitFor(t, func() bool { return p.Stats().Waiting == i+1 })
	}

	// Release the held lane at vtime 100ms: exactly one waiter wakes.
	first.Close()
	r1 := <-results
	if r1.err != nil {
		t.Fatalf("first waiter: %v", r1.err)
	}
	if r1.order != 0 {
		t.Fatalf("FIFO violated: waiter %d admitted first", r1.order)
	}
	if p.Stats().Waiting != 1 {
		t.Fatalf("waiting = %d, want 1", p.Stats().Waiting)
	}
	r1.lease.Close()
	r2 := <-results
	if r2.err != nil || r2.order != 1 {
		t.Fatalf("second waiter: %+v", r2)
	}
	r2.lease.Close()
	admitted.Wait()

	st := p.Stats()
	if st.Queued != 2 || st.Shed != 0 {
		t.Fatalf("stats = %+v, want Queued=2 Shed=0", st)
	}
}

func TestWaitGrantCarriesVtime(t *testing.T) {
	p := NewPool(Config{MaxInflight: 1, Policy: PolicyWait})
	holder, err := p.Admit(1, fixedNow(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan *Lease, 1)
	go func() {
		l, err := p.Admit(1, fixedNow(5*time.Millisecond), nil)
		if err != nil {
			panic(err)
		}
		got <- l
	}()
	waitFor(t, func() bool { return p.Stats().Waiting == 1 })
	// The holder's session clock has advanced to 80ms when it finishes:
	// the waiter's grant must be stamped with that reading, not its own
	// arrival time, so its clock advances past the contention.
	holder.now = fixedNow(80 * time.Millisecond)
	holder.Close()
	l := <-got
	if l.GrantedAt() != 80*time.Millisecond {
		t.Fatalf("GrantedAt = %s, want 80ms", l.GrantedAt())
	}
	if l.Waited() != 75*time.Millisecond {
		t.Fatalf("Waited = %s, want 75ms", l.Waited())
	}
	l.Close()
}

func TestWaitAbandonedByCancel(t *testing.T) {
	p := NewPool(Config{MaxInflight: 1, Policy: PolicyWait})
	holder, err := p.Admit(1, fixedNow(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	cancel := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := p.Admit(1, fixedNow(0), cancel)
		errc <- err
	}()
	waitFor(t, func() bool { return p.Stats().Waiting == 1 })
	close(cancel)
	if err := <-errc; !domain.IsOverloaded(err) {
		t.Fatalf("abandoned wait: err = %v, want ErrOverloaded", err)
	}
	// The abandoned waiter must not consume the lane when it frees.
	holder.Close()
	if got := p.Stats().Occupancy; got != 0 {
		t.Fatalf("occupancy = %d, want 0 (gone waiter must be skipped)", got)
	}
	l, err := p.Admit(1, fixedNow(0), nil)
	if err != nil {
		t.Fatalf("pool wedged after abandoned wait: %v", err)
	}
	l.Close()
}

func TestMaxQueueShedsUnderWait(t *testing.T) {
	p := NewPool(Config{MaxInflight: 1, Policy: PolicyWait, MaxQueue: 1})
	holder, err := p.Admit(1, fixedNow(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		l, err := p.Admit(1, fixedNow(0), nil)
		if l != nil {
			l.Close()
		}
		errc <- err
	}()
	waitFor(t, func() bool { return p.Stats().Waiting == 1 })
	if _, err := p.Admit(1, fixedNow(0), nil); !domain.IsOverloaded(err) {
		t.Fatalf("over-queue admit: err = %v, want ErrOverloaded", err)
	}
	holder.Close()
	if err := <-errc; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestReturnClampedAndCloseIdempotent(t *testing.T) {
	p := NewPool(Config{MaxInflight: 4})
	l, err := p.Admit(1, fixedNow(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.TryLease(2); got != 2 {
		t.Fatalf("TryLease(2) = %d", got)
	}
	l.Return(50) // clamps to the 2 extras; the implicit lane stays held
	if l.Held() != 1 {
		t.Fatalf("held after over-return = %d, want 1", l.Held())
	}
	if got := p.Stats().Occupancy; got != 1 {
		t.Fatalf("occupancy = %d, want 1", got)
	}
	l.Close()
	l.Close() // idempotent
	l.Return(3)
	if got := l.TryLease(2); got != 0 {
		t.Fatalf("closed lease granted %d lanes", got)
	}
	if got := p.Stats().Occupancy; got != 0 {
		t.Fatalf("final occupancy = %d, want 0", got)
	}
	if p.Capacity() != 4 {
		t.Fatalf("capacity = %d", p.Capacity())
	}
}

func TestWaitersBlockExtraLeases(t *testing.T) {
	p := NewPool(Config{MaxInflight: 2, Policy: PolicyWait})
	a, err := p.Admit(1, fixedNow(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Admit(1, fixedNow(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	admitted := make(chan *Lease, 1)
	go func() {
		l, err := p.Admit(1, fixedNow(0), nil)
		if err != nil {
			panic(err)
		}
		admitted <- l
	}()
	waitFor(t, func() bool { return p.Stats().Waiting == 1 })
	// b finishes; the freed lane must go to the queued session, and a must
	// not be able to snatch it as an extra even within its fair share.
	b.Close()
	c := <-admitted
	if got := a.TryLease(1); got != 0 {
		t.Fatalf("running session leased %d while pool full", got)
	}
	a.Close()
	c.Close()
}

func TestObserverMetrics(t *testing.T) {
	p := NewPool(Config{MaxInflight: 2, Policy: PolicyShed})
	o := obs.NewObserver()
	p.SetObserver(o)
	a, _ := p.Admit(1, fixedNow(0), nil)
	b, _ := p.Admit(1, fixedNow(0), nil)
	if _, err := p.Admit(1, fixedNow(0), nil); err == nil {
		t.Fatal("expected shed")
	}
	if got := o.Counter("hermes_admission_granted_total").Value(); got != 2 {
		t.Fatalf("granted = %d, want 2", got)
	}
	if got := o.Counter("hermes_admission_shed_total").Value(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
	if got := o.Gauge("hermes_admission_inflight_lanes").Value(); got != 2 {
		t.Fatalf("inflight gauge = %v, want 2", got)
	}
	a.Close()
	b.Close()
	if got := o.Gauge("hermes_admission_inflight_lanes").Value(); got != 0 {
		t.Fatalf("inflight gauge after close = %v, want 0", got)
	}
}

// TestExportedFamiliesEqualStats: a grant, a queued session that waits and
// a shed one move every hermes_admission_* family, and each equals the
// Stats field it shares a tally with, read by name. A handle declared but
// never attached leaves its family at zero and fails here.
func TestExportedFamiliesEqualStats(t *testing.T) {
	p := NewPool(Config{MaxInflight: 1, Policy: PolicyWait, MaxQueue: 1})
	o := obs.NewObserver()
	p.SetObserver(o)
	first, err := p.Admit(1, fixedNow(0), nil)
	if err != nil {
		t.Fatal(err)
	}
	queued := make(chan *Lease)
	go func() {
		l, _ := p.Admit(1, fixedNow(0), nil)
		queued <- l
	}()
	waitFor(t, func() bool { return p.Stats().Waiting == 1 })
	if _, err := p.Admit(1, fixedNow(0), nil); !domain.IsOverloaded(err) {
		t.Fatalf("admit past the queue bound: err = %v, want ErrOverloaded", err)
	}
	first.Close()
	second := <-queued
	st := p.Stats()
	for name, want := range map[string]int64{
		"hermes_admission_granted_total": st.Granted,
		"hermes_admission_queued_total":  st.Queued,
		"hermes_admission_shed_total":    st.Shed,
	} {
		if got := o.Counter(name).Value(); got != want || got == 0 {
			t.Errorf("%s = %d, Stats says %d (and the workload must move it)", name, got, want)
		}
	}
	if got := o.Gauge("hermes_admission_inflight_lanes").Value(); got != float64(st.Occupancy) || got != 1 {
		t.Errorf("inflight gauge = %g, Stats says %d, want 1", got, st.Occupancy)
	}
	if got := o.Histogram("hermes_admission_wait_ms").Count(); got != 1 {
		t.Errorf("hermes_admission_wait_ms count = %d, want 1 (the queued session)", got)
	}
	second.Close()
}

func TestNilSafety(t *testing.T) {
	var p *Pool
	p.SetObserver(nil)
	var l *Lease
	if l.TryLease(3) != 0 || l.Held() != 0 || l.GrantedAt() != 0 || l.Waited() != 0 {
		t.Fatal("nil lease must be inert")
	}
	l.Return(2)
	l.Close()
}

func TestConcurrentChurn(t *testing.T) {
	p := NewPool(Config{MaxInflight: 6, Policy: PolicyShed})
	o := obs.NewObserver()
	p.SetObserver(o)
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				l, err := p.Admit(1, fixedNow(0), nil)
				if err != nil {
					continue
				}
				if got := l.TryLease(2); got > 0 {
					l.Return(got)
				}
				l.Close()
			}
		}()
	}
	wg.Wait()
	st := p.Stats()
	if st.Occupancy != 0 || st.Waiting != 0 {
		t.Fatalf("post-churn stats = %+v", st)
	}
	if st.Peak > 6 {
		t.Fatalf("peak %d exceeded capacity 6", st.Peak)
	}
}

// waitFor polls cond with a short sleep until it holds or the test times
// out. The admission pool has no hooks for test synchronization by design
// (no test-only channels in production paths), so queue-entry is observed
// through Stats.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}
