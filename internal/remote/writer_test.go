package remote

import (
	"errors"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// countingConn counts the Write calls made on a connection: one each is a
// write(2) on a TCP socket.
type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.writes}, nil
}

// TestRemoteCallWritesPerCall pins the write shape of a small traced call:
// the server writes the first answer at once and the trace together with
// the done frame, two writes; the client writes the call, one.
func TestRemoteCallWritesPerCall(t *testing.T) {
	reg := domain.NewRegistry()
	reg.Register(echoDomain())
	srv := NewServer(reg)
	srv.Logf = func(string, ...any) {}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var srvWrites, cliWrites atomic.Int64
	go srv.Serve(countingListener{l, &srvWrites})
	defer srv.Close()
	c := NewClient(l.Addr().String(), "echo")
	defer c.Close()
	sess, err := c.getSession()
	if err != nil {
		t.Fatal(err)
	}
	sess.out.mu.Lock()
	sess.out.w = countingConn{sess.conn, &cliWrites}
	sess.out.mu.Unlock()

	srvBefore := srvWrites.Load()
	ctx, call := tracedCtx("call echo:gen(4)")
	st, err := c.Call(ctx, "gen", []term.Value{term.Int(4)})
	if err != nil {
		t.Fatal(err)
	}
	if vals, err := domain.Collect(st); err != nil || len(vals) != 4 {
		t.Fatalf("call = %d answers, %v", len(vals), err)
	}
	call.End(ctx.Clock.Now())
	if snap := call.Snapshot(); len(snap.Children) != 1 {
		t.Fatalf("no stitched serve subtree: the call was not traced")
	}
	if got := srvWrites.Load() - srvBefore; got != 2 {
		t.Errorf("server writes per call = %d, want 2 (first answer; trace + done)", got)
	}
	if got := cliWrites.Load(); got != 1 {
		t.Errorf("client writes per call = %d, want 1 (the call frame)", got)
	}
}

// stallDomain's stall answers once, then blocks until release is closed;
// its flood streams 100 000 answers as fast as the session takes them.
type stallDomain struct{ release chan struct{} }

func (stallDomain) Name() string { return "stall" }

func (stallDomain) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "stall"}, {Name: "flood"}}
}

func (d stallDomain) Call(ctx *domain.Ctx, fn string, _ []term.Value) (domain.Stream, error) {
	if fn == "flood" {
		vals := make([]term.Value, 100000)
		for i := range vals {
			vals[i] = term.Int(int64(i))
		}
		return domain.NewSliceStream(vals), nil
	}
	return &stallStream{release: d.release}, nil
}

type stallStream struct {
	release chan struct{}
	n       int
}

func (s *stallStream) Next() (term.Value, bool, error) {
	if s.n++; s.n == 1 {
		return term.Int(1), true, nil
	}
	<-s.release
	return nil, false, nil
}

func (s *stallStream) Close() error { return nil }

// TestFirstAnswerNotHeldByCoalescing: a call's first answer leaves while
// its source is still blocked — alone on its session, and while another
// call on the same session keeps the writer busy. Coalescing holds a frame
// behind at most the write in flight, never until the call's next frame.
func TestFirstAnswerNotHeldByCoalescing(t *testing.T) {
	for _, busy := range []bool{false, true} {
		release := make(chan struct{})
		_, addr := startServer(t, stallDomain{release})
		c := NewClient(addr, "stall")
		if busy {
			fs, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "flood", nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok, err := fs.Next(); !ok || err != nil {
				t.Fatalf("flood: %v %v", ok, err)
			}
			defer fs.Close()
		}
		got := make(chan error, 1)
		go func() {
			s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "stall", nil)
			if err == nil {
				var v term.Value
				v, _, err = s.Next()
				if err == nil && v != term.Int(1) {
					err = errors.New("first answer is not 1")
				}
			}
			got <- err
		}()
		select {
		case err := <-got:
			if err != nil {
				t.Fatalf("busy=%v: %v", busy, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("busy=%v: first answer held while its source blocked", busy)
		}
		close(release)
		c.Close()
	}
}

// blockingWriter's Write blocks until its gate is closed, then fails.
type blockingWriter struct {
	entered chan struct{}
	gate    chan struct{}
	calls   atomic.Int64
}

var errPeerGone = errors.New("peer gone")

func (w *blockingWriter) Write([]byte) (int, error) {
	if w.calls.Add(1) == 1 {
		close(w.entered)
	}
	<-w.gate
	return 0, errPeerGone
}

// pendingAtLeast waits until w holds at least n bytes behind its write.
func pendingAtLeast(t *testing.T, w *frameWriter, n int) {
	t.Helper()
	waitFor(t, "frames to queue", func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.writing && len(w.pending) >= n
	})
}

// TestFrameWriterStickyError: frames queued behind a write that fails are
// never written, their senders get the error, and every write or queue
// after it returns it too.
func TestFrameWriterStickyError(t *testing.T) {
	bw := &blockingWriter{entered: make(chan struct{}), gate: make(chan struct{})}
	w := &frameWriter{w: bw}
	first := make(chan error, 1)
	go func() { first <- w.write(&Frame{Op: OpAnswers, ID: 1}, nil) }()
	<-bw.entered
	if err := w.queue(&Frame{Op: OpTrace, ID: 2}, nil); err != nil {
		t.Fatalf("queue behind an in-flight write = %v, want nil", err)
	}
	// Behind the write in flight: queued, its sender waiting.
	second := make(chan error, 1)
	go func() { second <- w.write(&Frame{Op: OpAnswers, ID: 3}, nil) }()
	pendingAtLeast(t, w, len(`{"op":"trace","id":2}`)+len(`{"op":"answers","id":3}`)+2)
	close(bw.gate)
	for _, ch := range []chan error{first, second} {
		if err := <-ch; !errors.Is(err, errPeerGone) {
			t.Fatalf("a frame lost in the failed write reported %v, want %v", err, errPeerGone)
		}
	}
	for i := 0; i < 3; i++ {
		if err := w.write(&Frame{Op: OpAnswers, ID: 4}, nil); !errors.Is(err, errPeerGone) {
			t.Errorf("write after the failure = %v, want %v", err, errPeerGone)
		}
		if err := w.queue(&Frame{Op: OpTrace, ID: 5}, nil); !errors.Is(err, errPeerGone) {
			t.Errorf("queue after the failure = %v, want %v", err, errPeerGone)
		}
	}
	if n := bw.calls.Load(); n != 1 {
		t.Errorf("underlying writes = %d, want 1: nothing is written after a failure", n)
	}
}

// gatedWriter's every Write waits for one token from gate.
type gatedWriter struct {
	gate  chan struct{}
	calls atomic.Int64
}

func (w *gatedWriter) Write(b []byte) (int, error) {
	w.calls.Add(1)
	<-w.gate
	return len(b), nil
}

// TestFrameWriterSenderWritesOnlyItsBatch: a sender that finds no write in
// flight writes what is pending and returns, even while another goroutine
// keeps queueing frames behind it — so the session read loop, which
// echoes heartbeats inline, is never kept writing another call's stream.
func TestFrameWriterSenderWritesOnlyItsBatch(t *testing.T) {
	gw := &gatedWriter{gate: make(chan struct{})}
	w := &frameWriter{w: gw}
	echoed := make(chan error, 1)
	go func() { echoed <- w.write(&Frame{Op: OpHeartbeat, ID: 1}, nil) }()
	waitFor(t, "the echo's write", func() bool { return gw.calls.Load() == 1 })
	stop := make(chan struct{})
	flooded := make(chan struct{})
	go func() { // a stream that always has its next frame ready
		defer close(flooded)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if w.write(&Frame{Op: OpAnswers, ID: 2}, nil) != nil {
				return
			}
		}
	}()
	pendingAtLeast(t, w, 1)
	gw.gate <- struct{}{} // the echo's batch goes out; nothing more does
	select {
	case err := <-echoed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the echo's sender is still writing the stream's frames")
	}
	close(stop)
	close(gw.gate)
	<-flooded
}

// TestFrameWriterQueueBounded: many senders behind a blocked write hold at
// most maxPending bytes, plus the one frame that crossed it; the rest wait
// for room, and the write failing releases them all.
func TestFrameWriterQueueBounded(t *testing.T) {
	bw := &blockingWriter{entered: make(chan struct{}), gate: make(chan struct{})}
	w := &frameWriter{w: bw}
	big := &Frame{Op: OpError, ID: 1, Err: strings.Repeat("x", 32<<10)}
	frame, err := appendFrameBody(nil, big, nil)
	if err != nil {
		t.Fatal(err)
	}
	const senders = 2 * maxPending / (32 << 10)
	errs := make(chan error, senders)
	for i := 0; i < senders; i++ {
		go func() { errs <- w.write(big, nil) }()
	}
	<-bw.entered
	pendingAtLeast(t, w, maxPending)
	time.Sleep(20 * time.Millisecond) // room for a sender to overrun the bound
	w.mu.Lock()
	queued := len(w.pending)
	w.mu.Unlock()
	if bound := maxPending + len(frame); queued > bound {
		t.Errorf("queue grew to %d bytes, want <= %d", queued, bound)
	}
	close(bw.gate)
	for i := 0; i < senders; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, errPeerGone) {
				t.Errorf("sender %d: %v, want %v", i, err, errPeerGone)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a failed write left senders waiting")
		}
	}
}

// TestWriteQueueBoundedWhenPeerStopsReading: a session whose peer never
// reads holds its streaming calls' senders behind the blocked write with
// at most maxPending bytes queued; closing the connection releases them.
func TestWriteQueueBoundedWhenPeerStopsReading(t *testing.T) {
	reg := domain.NewRegistry()
	reg.Register(trickleDomain(100000, 0))
	srv := NewServer(reg)
	srv.Logf = func(string, ...any) {}
	client, server := net.Pipe() // Write blocks until the peer reads: it never does
	defer client.Close()
	ss := newServerSession(srv, server)
	const calls = 3
	var wg sync.WaitGroup
	for id := uint64(1); id <= calls; id++ {
		c, _ := ss.register(&frameIn{Frame: Frame{Op: OpCall, ID: id, Domain: "trickle", Function: "gen"}})
		wg.Add(1)
		go func() {
			defer wg.Done()
			srv.serveCall(c)
		}()
	}
	pendingAtLeast(t, &ss.out, 1)
	peak := 0
	for i := 0; i < 20; i++ {
		ss.out.mu.Lock()
		peak = max(peak, len(ss.out.pending))
		ss.out.mu.Unlock()
		time.Sleep(5 * time.Millisecond)
	}
	if peak > maxPending {
		t.Errorf("queue grew to %d bytes, want <= %d", peak, maxPending)
	}
	server.Close()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("closing the connection left senders waiting")
	}
}

// endlessDomain's gen answers forever; closing the stream closes closed.
type endlessDomain struct{ closed chan struct{} }

func (endlessDomain) Name() string                 { return "endless" }
func (endlessDomain) Functions() []domain.FuncSpec { return []domain.FuncSpec{{Name: "gen"}} }

func (d endlessDomain) Call(*domain.Ctx, string, []term.Value) (domain.Stream, error) {
	return &endlessStream{closed: d.closed}, nil
}

type endlessStream struct {
	closed chan struct{}
	n      int64
}

func (s *endlessStream) Next() (term.Value, bool, error) {
	s.n++
	return term.Int(s.n), true, nil
}

func (s *endlessStream) Close() error {
	close(s.closed)
	return nil
}

// pipeListener accepts one end of a net.Pipe, whose Write blocks until the
// other end reads: a slow reader keeps the server's writer saturated.
type pipeListener struct {
	conns chan net.Conn
	once  sync.Once
}

func (l *pipeListener) Accept() (net.Conn, error) {
	if c, ok := <-l.conns; ok {
		return c, nil
	}
	return nil, net.ErrClosed
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.conns) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// TestCancelReachesSaturatedSession: while an endless call keeps the
// server's writer busy behind a slow reader, a heartbeat arrives, then a
// cancel for the call. The session's read loop, which echoes the
// heartbeat, writes no one else's frames, so it goes on to read the
// cancel and the stream ends promptly.
func TestCancelReachesSaturatedSession(t *testing.T) {
	closed := make(chan struct{})
	reg := domain.NewRegistry()
	reg.Register(endlessDomain{closed})
	srv := NewServer(reg)
	srv.Logf = func(string, ...any) {}
	l := &pipeListener{conns: make(chan net.Conn, 1)}
	client, server := net.Pipe()
	l.conns <- server
	go srv.Serve(l)
	defer srv.Close()
	defer client.Close()

	send := func(line string) {
		t.Helper()
		if _, err := client.Write([]byte(line + "\n")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	defer close(stop)
	read := make(chan struct{})
	go func() { // a slow reader: 512 bytes a millisecond at most
		defer close(read)
		buf := make([]byte, 512)
		for {
			if _, err := client.Read(buf); err != nil {
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	send(`{"op":"hello","versions":[2]}`)
	send(`{"op":"call","id":1,"domain":"endless","function":"gen"}`)
	time.Sleep(50 * time.Millisecond) // the stream saturates the writer
	send(`{"op":"heartbeat","id":2}`)
	time.Sleep(50 * time.Millisecond)
	send(`{"op":"cancel","id":1}`)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the cancel did not reach the session while its writer was saturated")
	}
}
