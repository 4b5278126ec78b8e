package remote

import (
	"context"
	"encoding/json"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/obs"
	"hermes/internal/resilience"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// trickleDomain emits answers slowly (wall time on the server), so a
// client that stops listening mid-stream gives the server a long window
// in which it must notice and abort.
func trickleDomain(n int, perAnswer time.Duration) *domaintest.Domain {
	d := domaintest.New("trickle")
	d.Define("gen", domaintest.Func{Arity: 0, PerAnswer: perAnswer,
		Fn: func([]term.Value) ([]term.Value, error) {
			out := make([]term.Value, n)
			for i := range out {
				out[i] = term.Int(int64(i))
			}
			return out, nil
		}})
	return d
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestV2SingleConnectionMultiplexes: many concurrent calls through one
// client share one TCP connection against a v2 server.
func TestV2SingleConnectionMultiplexes(t *testing.T) {
	srv, addr := startServer(t, echoDomain())
	c := NewClient(addr, "echo")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(n int64) {
			defer wg.Done()
			s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(n)})
			if err != nil {
				errs <- err
				return
			}
			vals, err := domain.Collect(s)
			if err != nil {
				errs <- err
				return
			}
			if int64(len(vals)) != n {
				errs <- errors.New("wrong answer count")
			}
		}(int64(2 + g%5))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := srv.OpenConns(); got != 1 {
		t.Errorf("OpenConns = %d, want 1 (multiplexed session)", got)
	}
}

// TestSessionKeepsFewIdleServers: after a burst of concurrent calls on one
// session, at most maxIdleServers of the goroutines that served them stay
// waiting for the next call, and the next call is served.
func TestSessionKeepsFewIdleServers(t *testing.T) {
	_, addr := startServer(t, trickleDomain(3, 20*time.Millisecond))
	c := NewClient(addr, "trickle")
	defer c.Close()
	call := func() error {
		s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
		if err == nil {
			_, err = domain.Collect(s)
		}
		return err
	}
	if err := call(); err != nil { // opens the session: one serving goroutine waits after it
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i := 0; i < 3*maxIdleServers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := call(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	waitFor(t, "idle serving goroutines to leave", func() bool { return runtime.NumGoroutine() <= base+maxIdleServers })
	if err := call(); err != nil {
		t.Fatal(err)
	}
}

// TestV2FirstAnswerBeforeLastAnswer: with a large chunk size a v2 stream
// still delivers the first answer immediately, while the source is still
// trickling out the rest.
func TestV2FirstAnswerBeforeLastAnswer(t *testing.T) {
	d := trickleDomain(64, 30*time.Millisecond)
	// One chunk would cover the whole answer set.
	_, addr := startServerCfg(t, func(s *Server) { s.chunkSize = 64 }, d)
	c := NewClient(addr, "trickle")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	if _, ok, err := s.Next(); !ok || err != nil {
		t.Fatalf("first answer: %v %v", ok, err)
	}
	// The full set takes ~1.9s to produce; the first answer must not wait
	// for it.
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("first answer took %v, want immediate flush", waited)
	}
}

// TestV2CloseCancelsServerCall: closing a v2 answer stream sends a cancel
// frame, and the server aborts the domain stream promptly — even though
// the source trickles and no flush would fail for many answers.
func TestV2CloseCancelsServerCall(t *testing.T) {
	meter := domaintest.Metered(trickleDomain(10000, 10*time.Millisecond))
	_, addr := startServer(t, meter)
	c := NewClient(addr, "trickle")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); !ok || err != nil {
		t.Fatalf("first answer: %v %v", ok, err)
	}
	s.Close()
	waitFor(t, "server call abort after cancel frame", func() bool {
		return meter.Current() == 0
	})
}

// Regression (slowloris): a connection that sends nothing used to pin a
// handler goroutine and a conns entry forever. The header deadline drops
// it.
func TestSlowlorisHeaderDeadline(t *testing.T) {
	srv, addr := startServerCfg(t, func(s *Server) { s.HeaderTimeout = 50 * time.Millisecond }, echoDomain())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitFor(t, "server to drop the silent connection", func() bool {
		return srv.OpenConns() == 0
	})
	// The server closed its side: our read sees EOF/reset rather than
	// blocking.
	conn.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("read on dropped connection should fail")
	}
}

// wedgedListener accepts connections and reads forever without replying —
// the shape of a wedged or half-dead server.
func wedgedListener(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { close(done); l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				buf := make([]byte, 1024)
				for {
					select {
					case <-done:
						return
					default:
					}
					conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
					conn.Read(buf)
				}
			}()
		}
	}()
	return l.Addr().String()
}

// A wedged server must also bound v2 call setup: the hello exchange reads
// under a deadline and surfaces ErrUnavailable.
func TestV2WedgedServerHelloTimesOut(t *testing.T) {
	addr := wedgedListener(t)
	c := NewClient(addr, "echo")
	c.SetFrameTimeout(100 * time.Millisecond)
	_, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(1)})
	if !errors.Is(err, domain.ErrUnavailable) {
		t.Errorf("Call = %v, want ErrUnavailable", err)
	}
}

// Cancelling the call context mid-stream on a v2 session unblocks Next and
// tells the server to stop, without killing the shared session.
func TestV2CtxCancelMidStream(t *testing.T) {
	meter := domaintest.Metered(trickleDomain(10000, 10*time.Millisecond))
	srv, addr := startServer(t, meter)
	c := NewClient(addr, "trickle")
	cctx, cancel := context.WithCancel(context.Background())
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	ctx.Context = cctx
	s, err := c.Call(ctx, "gen", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); !ok || err != nil {
		t.Fatalf("first answer: %v %v", ok, err)
	}
	cancel()
	if _, _, err := s.Next(); !errors.Is(err, context.Canceled) {
		t.Errorf("Next = %v, want context.Canceled", err)
	}
	waitFor(t, "server call abort", func() bool { return meter.Current() == 0 })
	// The session survived: a fresh call on the same client still works.
	s2, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s2.Next(); !ok || err != nil {
		t.Fatalf("post-cancel call: %v %v", ok, err)
	}
	s2.Close()
	if got := srv.OpenConns(); got != 1 {
		t.Errorf("OpenConns = %d, want the one persistent session", got)
	}
}

// TestV2ResumeAfterSessionDrop: killing the session connection mid-stream
// ends the call with domain.ErrUnavailable, and the resilience wrapper in
// front of the client re-issues it on a fresh connection, skipping the
// delivered prefix; the consumer sees every answer exactly once, in order.
// The source trickles on the server's wall clock, so the drop always lands
// mid-stream.
func TestV2ResumeAfterSessionDrop(t *testing.T) {
	_, addr := startServerCfg(t, func(s *Server) { s.chunkSize = 1 }, trickleDomain(50, 2*time.Millisecond))
	c := NewClient(addr, "trickle")
	w := resilience.Wrap(c, resilience.DefaultPolicy())
	s, err := w.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var got []int64
	for i := 0; i < 10; i++ {
		v, ok, err := s.Next()
		if !ok || err != nil {
			t.Fatalf("answer %d: %v %v", i, ok, err)
		}
		got = append(got, int64(v.(term.Int)))
	}
	// Kill the transport under the stream.
	c.mu.Lock()
	sess := c.sess
	c.mu.Unlock()
	sess.conn.Close()
	for {
		v, ok, err := s.Next()
		if err != nil {
			t.Fatalf("after drop: %v", err)
		}
		if !ok {
			break
		}
		got = append(got, int64(v.(term.Int)))
	}
	if len(got) != 50 {
		t.Fatalf("answers = %d, want 50 (no loss, no duplicates)", len(got))
	}
	for i, n := range got {
		if n != int64(i) {
			t.Fatalf("answer %d = %d, want %d (resumed prefix skipped wrongly)", i, n, i)
		}
	}
	if m := w.Metrics(); m.StreamResumes != 1 {
		t.Errorf("StreamResumes = %d, want 1: the drop did not land mid-stream", m.StreamResumes)
	}
}

// TestV2ResumeExhaustionSurfacesUnavailable: when the server goes away for
// good mid-stream, the stream ends with the retryable error the resilience
// layer re-issues on; the wire itself does not retry.
func TestV2ResumeExhaustionSurfacesUnavailable(t *testing.T) {
	srv, addr := startServerCfg(t, func(s *Server) { s.chunkSize = 1 }, echoDomain())
	c := NewClient(addr, "echo")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(100000)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok, err := s.Next(); !ok || err != nil {
		t.Fatalf("first answer: %v %v", ok, err)
	}
	srv.Close() // server gone for good
	for {
		_, ok, err := s.Next()
		if err != nil {
			if !errors.Is(err, domain.ErrUnavailable) {
				t.Errorf("err = %v, want ErrUnavailable", err)
			}
			return
		}
		if !ok {
			t.Fatal("stream ended cleanly despite dead server")
		}
	}
}

// TestV2HeartbeatKeepsQuietSessionAlive: a call whose source is slower
// than the frame timeout survives because heartbeat echoes keep refreshing
// the session's read deadline.
func TestV2HeartbeatKeepsQuietSessionAlive(t *testing.T) {
	d := domaintest.New("slow")
	d.Define("one", domaintest.Func{Arity: 0, PerCall: 400 * time.Millisecond,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(1)}, nil
		}})
	_, addr := startServer(t, d)
	c := NewClient(addr, "slow")
	c.SetFrameTimeout(150 * time.Millisecond)
	c.SetHeartbeatInterval(30 * time.Millisecond)
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "one", nil)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(s)
	if err != nil || len(vals) != 1 {
		t.Fatalf("slow call = %v, %v (session must outlive quiet spells)", vals, err)
	}
}

// failingWriter always fails, standing in for a peer whose receive side is
// gone.
type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("broken pipe") }

// Regression (silent Encode errors): failed frame writes used to vanish.
// They must hit the log and the hermes_remote_send_errors_total counter.
func TestSendErrorsLoggedAndCounted(t *testing.T) {
	reg := domain.NewRegistry()
	reg.Register(echoDomain())
	srv := NewServer(reg)
	var logged int
	srv.Logf = func(string, ...any) { logged++ }
	ob := obs.NewObserver()
	srv.SetObserver(ob)
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()
	ss := newServerSession(srv, server)
	ss.out.w = failingWriter{}
	if ss.send(kindError, &Frame{Op: OpError, ID: 1, Err: "x"}, nil) {
		t.Fatal("send on a broken writer should report failure")
	}
	if logged != 1 {
		t.Errorf("Logf calls = %d, want 1", logged)
	}
	if got := ob.Counter("hermes_remote_send_errors_total", "frame", "error").Value(); got != 1 {
		t.Errorf("send_errors_total = %d, want 1", got)
	}
}

// TestV2StaleVersionRejected: a client offering only versions the server
// does not speak gets a hard rejection on the hello, not a retryable
// error.
func TestV2StaleVersionRejected(t *testing.T) {
	_, addr := startServer(t, echoDomain())
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := json.NewEncoder(conn).Encode(Frame{Op: OpHello, Versions: []int{99}}); err != nil {
		t.Fatal(err)
	}
	var reply Frame
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if err := json.NewDecoder(conn).Decode(&reply); err != nil {
		t.Fatal(err)
	}
	if reply.Op != OpHello || reply.Err == "" || reply.Version != 0 {
		t.Errorf("stale-version reply = %+v, want hello rejection", reply)
	}
}
