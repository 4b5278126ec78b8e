package cim

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/obs"
	"hermes/internal/term"
)

// gateDomain blocks every source call on a release channel so the test
// controls exactly when the in-flight call completes.
type gateDomain struct {
	name    string
	started chan struct{} // signalled when a call reaches the source
	release chan struct{} // closed to let blocked calls return
	calls   atomic.Int64
}

func (g *gateDomain) Name() string { return g.name }

func (g *gateDomain) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "slow", Arity: 1}, {Name: "slow2", Arity: 1}, {Name: "slow3", Arity: 1}}
}

func (g *gateDomain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	g.calls.Add(1)
	select {
	case g.started <- struct{}{}:
	default:
	}
	<-g.release
	return domain.NewSliceStream(strs("x", "y", "z")), nil
}

// waitReaders polls until the flight for key has at least n attached
// readers (leader included).
func waitReaders(t *testing.T, m *Manager, key string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		m.flightMu.Lock()
		r := 0
		if f := m.flights[key]; f != nil {
			f.mu.Lock()
			r = f.readers
			f.mu.Unlock()
		}
		m.flightMu.Unlock()
		if r >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("flight %q has %d readers, want >= %d", key, r, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSingleFlightConcurrentIdenticalCalls: n identical calls arriving
// while the first is in flight cost the source one call; the other n-1
// attach to it, and hermes_cim_singleflight_shares_total counts them.
func TestSingleFlightConcurrentIdenticalCalls(t *testing.T) {
	g := &gateDomain{name: "g", started: make(chan struct{}, 1), release: make(chan struct{})}
	reg := domain.NewRegistry()
	reg.Register(g)
	m := New(reg, testCfg())
	o := obs.NewObserver()
	m.SetObserver(o)

	const n = 8
	c := call("g", "slow", term.Str("a"))
	type result struct {
		vals []term.Value
		err  error
	}
	results := make(chan result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := m.CallThrough(newCtx(), c)
			if err != nil {
				results <- result{err: err}
				return
			}
			vals, err := domain.Collect(resp.Stream)
			results <- result{vals: vals, err: err}
		}()
	}

	<-g.started // the leader reached the source
	// Wait for all n callers to attach to the one flight, then let the
	// source answer.
	waitReaders(t, m, c.Key(), n)
	close(g.release)
	wg.Wait()
	close(results)

	for r := range results {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.vals) != 3 {
			t.Fatalf("answers = %v, want 3 values", r.vals)
		}
		for i, want := range []string{"x", "y", "z"} {
			if r.vals[i].Key() != term.Str(want).Key() {
				t.Fatalf("answers = %v, want [x y z]", r.vals)
			}
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("source called %d times, want 1", got)
	}
	if got := o.Counter("hermes_cim_singleflight_shares_total").Value(); got != n-1 {
		t.Errorf("hermes_cim_singleflight_shares_total = %d, want %d", got, n-1)
	}
	// The one measured call was cached; a later identical call is an exact
	// hit.
	resp, err := m.CallThrough(newCtx(), c)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceCacheExact {
		t.Errorf("post-flight call source = %v, want exact hit", resp.Source)
	}
	if got := drain(t, resp); len(got) != 3 {
		t.Fatalf("cached answers = %v", got)
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("source called %d times after cache hit, want 1", got)
	}
}

func TestSingleFlightEqualityEquivalentCalls(t *testing.T) {
	g := &gateDomain{name: "g", started: make(chan struct{}, 1), release: make(chan struct{})}
	reg := domain.NewRegistry()
	reg.Register(g)
	m := New(reg, testCfg())
	inv, err := lang.ParseInvariant("true => g:slow(V) = g:slow2(V).")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddInvariant(inv); err != nil {
		t.Fatal(err)
	}

	leaderCall := call("g", "slow", term.Str("a"))
	joinerCall := call("g", "slow2", term.Str("a"))

	type result struct {
		vals []term.Value
		err  error
	}
	results := make(chan result, 2)
	run := func(c domain.Call) {
		resp, err := m.CallThrough(newCtx(), c)
		if err != nil {
			results <- result{err: err}
			return
		}
		vals, err := domain.Collect(resp.Stream)
		results <- result{vals: vals, err: err}
	}
	go run(leaderCall)
	<-g.started // slow('a') is in flight
	go run(joinerCall)
	// The joiner attaches to the slow('a') flight via the equality
	// invariant: its key never appears in the flight index.
	waitReaders(t, m, leaderCall.Key(), 2)
	close(g.release)

	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.vals) != 3 {
			t.Fatalf("answers = %v, want 3 values", r.vals)
		}
	}
	if got := g.calls.Load(); got != 1 {
		t.Errorf("source called %d times, want 1", got)
	}
	if st := m.Stats(); st.SingleFlightShares != 1 {
		t.Errorf("SingleFlightShares = %d, want 1", st.SingleFlightShares)
	}
}

// TestEquivalentFlightAttachIsDeterministic: with two equivalent flights
// open, a miss attaches to the flight of the first-registered invariant on
// every run, and reports that flight's call as the one serving it.
func TestEquivalentFlightAttachIsDeterministic(t *testing.T) {
	first, second := call("g", "slow", term.Str("a")), call("g", "slow2", term.Str("a"))
	for run := 0; run < 25; run++ {
		g := &gateDomain{name: "g", started: make(chan struct{}, 2), release: make(chan struct{})}
		reg := domain.NewRegistry()
		reg.Register(g)
		m := New(reg, testCfg())
		for _, src := range []string{
			"true => g:slow3(X) = g:slow(X).",
			"true => g:slow3(X) = g:slow2(X).",
		} {
			inv, err := lang.ParseInvariant(src)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.AddInvariant(inv); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for _, c := range []domain.Call{second, first} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if resp, err := m.CallThrough(newCtx(), c); err == nil {
					domain.Collect(resp.Stream)
				}
			}()
		}
		waitReaders(t, m, first.Key(), 1)
		waitReaders(t, m, second.Key(), 1)
		attached := make(chan Response, 1)
		ctx, notes := notingCtx()
		go func() {
			resp, err := m.CallThrough(ctx, call("g", "slow3", term.Str("a")))
			if err != nil {
				t.Error(err)
				close(attached)
				return
			}
			attached <- resp
			domain.Collect(resp.Stream)
		}()
		joined := ""
		for joined == "" {
			for _, c := range []domain.Call{first, second} {
				m.flightMu.Lock()
				f := m.flights[c.Key()]
				f.mu.Lock()
				if f.readers == 2 {
					joined = c.Key()
				}
				f.mu.Unlock()
				m.flightMu.Unlock()
			}
			time.Sleep(time.Millisecond)
		}
		close(g.release)
		_, ok := <-attached
		wg.Wait()
		if !ok {
			t.FailNow()
		}
		notedFirst, _ := notes.read(first.Key())
		notedSecond, _ := notes.read(second.Key())
		if joined != first.Key() || !notedFirst || notedSecond {
			t.Fatalf("run %d: attached to %s (noted %s %v, %s %v), want the first-registered invariant's %s",
				run, joined, first, notedFirst, second, notedSecond, first)
		}
		if got := g.calls.Load(); got != 2 {
			t.Fatalf("run %d: source called %d times, want 2", run, got)
		}
	}
}

// stepDomain serves streams whose Next blocks until the test grants it a
// step, so a test decides exactly which reader is inside the source when.
type stepDomain struct {
	answers []term.Value
	calls   atomic.Int64
	// setupErrs, when > 0, makes that many leading Calls block on setupGate
	// and then fail.
	setupErrs atomic.Int64
	setupGate chan struct{}
	entered   chan struct{} // signalled when a Call or a Next reaches the source
	step      chan struct{} // one receive per Next (nil = ungated)

	mu      sync.Mutex
	streams []*stepStream
}

func newStepDomain(answers ...string) *stepDomain {
	return &stepDomain{
		answers:   strs(answers...),
		setupGate: make(chan struct{}),
		entered:   make(chan struct{}, 16),
		step:      make(chan struct{}),
	}
}

func (d *stepDomain) Name() string { return "s" }

func (d *stepDomain) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "f", Arity: 1}}
}

var errSetup = errors.New("stepDomain: setup failed")

func (d *stepDomain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	d.calls.Add(1)
	if d.setupErrs.Add(-1) >= 0 {
		d.entered <- struct{}{}
		<-d.setupGate
		return nil, errSetup
	}
	s := &stepStream{d: d}
	d.mu.Lock()
	d.streams = append(d.streams, s)
	d.mu.Unlock()
	return s, nil
}

// stream returns the i-th stream the domain handed out.
func (d *stepDomain) stream(i int) *stepStream {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.streams[i]
}

type stepStream struct {
	d      *stepDomain
	idx    int
	nexts  atomic.Int64
	closes atomic.Int64
	inNext atomic.Bool
	// closedInNext records a Close that arrived while a Next was still
	// inside the source — the one thing closeOnIdle exists to prevent.
	closedInNext atomic.Bool
}

func (s *stepStream) Next() (term.Value, bool, error) {
	s.inNext.Store(true)
	defer s.inNext.Store(false)
	s.nexts.Add(1)
	if s.d.step != nil {
		s.d.entered <- struct{}{}
		<-s.d.step
	}
	if s.idx >= len(s.d.answers) {
		return nil, false, nil
	}
	v := s.d.answers[s.idx]
	s.idx++
	return v, true, nil
}

func (s *stepStream) Close() error {
	if s.inNext.Load() {
		s.closedInNext.Store(true)
	}
	s.closes.Add(1)
	return nil
}

func stepManager(d *stepDomain) (*Manager, *obs.Observer) {
	reg := domain.NewRegistry()
	reg.Register(d)
	m := New(reg, testCfg())
	o := obs.NewObserver()
	m.SetObserver(o)
	return m, o
}

func wantVals(t *testing.T, what string, got []term.Value, want ...string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
	for i, w := range want {
		if got[i].Key() != term.Str(w).Key() {
			t.Fatalf("%s = %v, want %v", what, got, want)
		}
	}
}

// openStream routes c through the CIM and returns the response stream.
func openStream(t *testing.T, m *Manager, ctx *domain.Ctx, c domain.Call) domain.Stream {
	t.Helper()
	resp, err := m.CallThrough(ctx, c)
	if err != nil {
		t.Fatal(err)
	}
	return resp.Stream
}

func nextVal(t *testing.T, s domain.Stream, want string) {
	t.Helper()
	v, ok, err := s.Next()
	if err != nil || !ok || v.Key() != term.Str(want).Key() {
		t.Fatalf("Next = (%v, %v, %v), want %q", v, ok, err, want)
	}
}

func TestFlightLastReaderEarlyCloseStoresIncomplete(t *testing.T) {
	d := newStepDomain("x", "y", "z")
	d.step = nil
	m, o := stepManager(d)
	c := call("s", "f", term.Str("a"))

	a := openStream(t, m, newCtx(), c)
	b := openStream(t, m, newCtx(), c)
	if st := m.Stats(); st.SingleFlightShares != 1 {
		t.Fatalf("SingleFlightShares = %d, want 1 (b attached to a's flight)", st.SingleFlightShares)
	}
	nextVal(t, a, "x") // a pulls x
	nextVal(t, b, "x") // b replays it
	nextVal(t, b, "y") // b pulls y
	src := d.stream(0)
	if got := src.nexts.Load(); got != 2 {
		t.Fatalf("source Next called %d times for 2 answers, want 2", got)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if src.closes.Load() != 0 {
		t.Fatal("source closed while a reader is still attached")
	}
	if _, ok := m.Lookup(c); ok {
		t.Fatal("entry stored before the flight ended")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if got := src.closes.Load(); got != 1 {
		t.Fatalf("source closed %d times, want 1", got)
	}
	e, ok := m.Lookup(c)
	if !ok || e.Complete {
		t.Fatalf("entry = %+v (found %v), want an incomplete entry", e, ok)
	}
	wantVals(t, "stored answers", e.Answers, "x", "y")
	if got := o.Gauge("hermes_cim_inflight_calls").Value(); got != 0 {
		t.Fatalf("hermes_cim_inflight_calls = %v after the flight ended, want 0", got)
	}

	// A caller arriving now is served the incomplete entry as a partial
	// answer and completes it with a source call of its own.
	resp, err := m.CallThrough(newCtx(), c)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Source != SourceCachePartial {
		t.Fatalf("late caller source = %v, want cache-partial", resp.Source)
	}
	wantVals(t, "late caller answers", drain(t, resp), "x", "y", "z")
	if got := d.calls.Load(); got != 2 {
		t.Fatalf("source called %d times, want 2 (the abandoned flight must not be reused)", got)
	}
	if st := m.Stats(); st.SingleFlightShares != 1 {
		t.Fatalf("SingleFlightShares = %d after the late caller, want still 1", st.SingleFlightShares)
	}
}

func TestFlightCloseDuringPullDefersSourceClose(t *testing.T) {
	d := newStepDomain("x", "y", "z")
	m, o := stepManager(d)
	c := call("s", "f", term.Str("a"))

	r := openStream(t, m, newCtx(), c)
	type res struct {
		v   term.Value
		ok  bool
		err error
	}
	pulled := make(chan res, 1)
	go func() {
		v, ok, err := r.Next()
		pulled <- res{v, ok, err}
	}()
	<-d.entered // the pull is blocked inside the source
	src := d.stream(0)
	if err := r.Close(); err != nil { // last reader leaves mid-pull
		t.Fatal(err)
	}
	if got := src.closes.Load(); got != 0 {
		t.Fatalf("source closed %d times under a running Next", got)
	}
	if got := o.Gauge("hermes_cim_inflight_calls").Value(); got != 1 {
		t.Fatalf("hermes_cim_inflight_calls = %v during the deferred close, want 1", got)
	}
	d.step <- struct{}{}
	got := <-pulled
	if got.err != nil || !got.ok || got.v.Key() != term.Str("x").Key() {
		t.Fatalf("pull returned (%v, %v, %v), want x", got.v, got.ok, got.err)
	}
	if n := src.closes.Load(); n != 1 {
		t.Fatalf("source closed %d times, want exactly 1", n)
	}
	if src.closedInNext.Load() {
		t.Fatal("source closed while its Next was still running")
	}
	if n := src.nexts.Load(); n != 1 {
		t.Fatalf("source Next called %d times, want 1", n)
	}
	if g := o.Gauge("hermes_cim_inflight_calls").Value(); g != 0 {
		t.Fatalf("hermes_cim_inflight_calls = %v, want 0", g)
	}
	e, ok := m.Lookup(c)
	if !ok || e.Complete {
		t.Fatalf("entry = %+v (found %v), want an incomplete entry", e, ok)
	}
	wantVals(t, "stored answers", e.Answers, "x")
}

func TestFlightFollowerCancelledWhileWaiting(t *testing.T) {
	d := newStepDomain("x", "y", "z")
	m, _ := stepManager(d)
	c := call("s", "f", term.Str("a"))

	lead := openStream(t, m, newCtx(), c)
	cctx, cancel := context.WithCancel(context.Background())
	fctx := newCtx()
	fctx.Context = cctx
	follower := openStream(t, m, fctx, c)
	other := openStream(t, m, newCtx(), c)

	type res struct {
		vals []term.Value
		err  error
	}
	leadDone := make(chan res, 1)
	go func() {
		vals, err := domain.Collect(lead)
		leadDone <- res{vals, err}
	}()
	<-d.entered // lead is the puller, blocked in the source

	followerDone := make(chan error, 1)
	go func() {
		_, _, err := follower.Next()
		followerDone <- err
	}()
	cancel()
	if err := <-followerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower's Next = %v, want context.Canceled", err)
	}
	if err := follower.Close(); err != nil {
		t.Fatal(err)
	}

	otherDone := make(chan res, 1)
	go func() {
		vals, err := domain.Collect(other)
		otherDone <- res{vals, err}
	}()
	// Four source Nexts (x, y, z, end) whoever pulls them.
	for i := 0; i < 4; i++ {
		d.step <- struct{}{}
	}
	for name, ch := range map[string]chan res{"leader": leadDone, "other follower": otherDone} {
		r := <-ch
		if r.err != nil {
			t.Fatalf("%s: %v", name, r.err)
		}
		wantVals(t, name+" answers", r.vals, "x", "y", "z")
	}
	if n := d.stream(0).nexts.Load(); n != 4 {
		t.Fatalf("source Next called %d times, want 4", n)
	}
	e, ok := m.Lookup(c)
	if !ok || !e.Complete {
		t.Fatalf("entry = %+v (found %v), want a complete entry", e, ok)
	}
	wantVals(t, "stored answers", e.Answers, "x", "y", "z")
}

func TestFlightLeaderSetupFailureFollowerRetries(t *testing.T) {
	d := newStepDomain("x", "y", "z")
	d.step = nil
	d.setupErrs.Store(1)
	m, o := stepManager(d)
	c := call("s", "f", term.Str("a"))

	leadErr := make(chan error, 1)
	go func() {
		_, err := m.CallThrough(newCtx(), c)
		leadErr <- err
	}()
	<-d.entered // the leader's Call is blocked at setup

	type res struct {
		vals []term.Value
		err  error
	}
	followDone := make(chan res, 1)
	go func() {
		resp, err := m.CallThrough(newCtx(), c)
		if err != nil {
			followDone <- res{err: err}
			return
		}
		vals, err := domain.Collect(resp.Stream)
		followDone <- res{vals, err}
	}()
	waitReaders(t, m, c.Key(), 2)
	close(d.setupGate)

	if err := <-leadErr; !errors.Is(err, errSetup) {
		t.Fatalf("leader error = %v, want the setup failure", err)
	}
	r := <-followDone
	if r.err != nil {
		t.Fatalf("follower: %v", r.err)
	}
	wantVals(t, "follower answers", r.vals, "x", "y", "z")
	if got := d.calls.Load(); got != 2 {
		t.Fatalf("source called %d times, want 2 (failed setup + the follower's retry)", got)
	}
	if st := m.Stats(); st.SingleFlightShares != 0 {
		t.Fatalf("SingleFlightShares = %d, want 0 (a failed flight shares nothing)", st.SingleFlightShares)
	}
	if g := o.Gauge("hermes_cim_inflight_calls").Value(); g != 0 {
		t.Fatalf("hermes_cim_inflight_calls = %v, want 0", g)
	}
}
