package remote

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// Server hosts source domains over TCP: the hermesd side of the protocol.
// Every connection opens with a hello and then runs the multiplexed session
// loop; any other first line is refused once and the connection released.
type Server struct {
	reg *domain.Registry
	// chunkSize is how many answers travel per response frame (64; tests
	// shrink it to force many frames). The first answer of a call is
	// always flushed immediately, regardless of chunking, so
	// time-to-first-answer does not wait for a full chunk.
	chunkSize int
	// HeaderTimeout bounds how long a fresh connection may take to send
	// its first line (the hello). Without it a connection that sends
	// nothing pins a handler goroutine and a conns entry forever
	// (slowloris). 0 disables the deadline.
	HeaderTimeout time.Duration
	// Logf receives connection-level diagnostics (default: log.Printf; set
	// to a no-op in tests).
	Logf func(format string, args ...any)
	// NodeName tags every serve span this node ships to callers (the
	// per-hop node= tag in stitched traces).
	NodeName string
	// TraceMaxDepth is the hop-depth limit for federated tracing: a call
	// frame deeper than this is served normally but gets no trace frame
	// (the cycle guard for mutually mounted nodes). 0 disables tracing.
	TraceMaxDepth int
	// TraceMaxSubtreeBytes bounds the encoded span subtree shipped per
	// call; deeper levels are pruned to fit and the root is tagged
	// truncated=1. 0 means unlimited.
	TraceMaxSubtreeBytes int

	mu        sync.Mutex
	listener  net.Listener
	conns     map[net.Conn]struct{}
	closed    bool
	debugInfo func() ([]byte, error)

	// Event tallies, attached to the metrics registry by SetObserver.
	calls                             obs.Counter
	refused                           [2]obs.Counter // refusedNotHello, refusedVersion
	sendErrors                        [len(frameKinds)]obs.Counter
	traceDroppedDepth, traceTruncated obs.Counter
}

const refusedNotHello, refusedVersion = 0, 1 // hermes_remote_refused_total's reasons

// The kinds of frame the server sends, hermes_remote_send_errors_total's labels.
const kindHello, kindError, kindAnswers, kindHeartbeat, kindFunctions, kindDebug, kindTrace = 0, 1, 2, 3, 4, 5, 6

var frameKinds = [...]string{kindHello: "hello", kindError: "error", kindAnswers: "answers",
	kindHeartbeat: "heartbeat", kindFunctions: "functions", kindDebug: "debug", kindTrace: "trace"}

// DefaultHeaderTimeout is how long a new connection gets to send its first
// line before the server drops it.
const DefaultHeaderTimeout = 10 * time.Second

// Federated-tracing defaults: hop-depth cycle guard and per-call subtree
// byte budget.
const (
	DefaultTraceMaxDepth        = 8
	DefaultTraceMaxSubtreeBytes = 1 << 20
)

// NewServer creates a server over a registry of domains.
func NewServer(reg *domain.Registry) *Server {
	return &Server{
		reg:                  reg,
		chunkSize:            64,
		HeaderTimeout:        DefaultHeaderTimeout,
		Logf:                 log.Printf,
		NodeName:             "hermesd",
		TraceMaxDepth:        DefaultTraceMaxDepth,
		TraceMaxSubtreeBytes: DefaultTraceMaxSubtreeBytes,
		conns:                map[net.Conn]struct{}{},
	}
}

// SetDebugInfo installs the producer of this node's debug rollup payload
// (metrics snapshot, savings ledger, slow queries), served to peers on
// OpDebug requests for their /debug/cluster views. Without one, debug
// requests get an error frame.
func (s *Server) SetDebugInfo(fn func() ([]byte, error)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.debugInfo = fn
}

func (s *Server) debugFn() func() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.debugInfo
}

// SetObserver attaches the server's tallies to the observer's metrics
// registry: the serving-side hermes_remote_* and hermes_trace_* families
// are declared here and nowhere else.
func (s *Server) SetObserver(o *obs.Observer) {
	r := o.Registry()
	r.AttachCounter("hermes_remote_calls_total", "domain calls served over the wire protocol", s.calls.Value, "proto", "v2")
	for i, reason := range [2]string{refusedNotHello: "not-hello", refusedVersion: "version"} {
		r.AttachCounter("hermes_remote_refused_total", "stale peers refused at the first line, by reason (not-hello: no hello first; version: no common version)", s.refused[i].Value, "reason", reason)
	}
	for i, kind := range frameKinds {
		r.AttachCounter("hermes_remote_send_errors_total", "frame writes that failed (dead peers, serialization errors), by frame kind", s.sendErrors[i].Value, "frame", kind)
	}
	r.AttachCounter("hermes_trace_dropped_depth_total", "serve subtrees withheld because the call exceeded the hop-depth limit", s.traceDroppedDepth.Value)
	r.AttachCounter("hermes_trace_truncated_total", "serve subtrees pruned to the -trace-max-subtree-bytes budget before shipping", s.traceTruncated.Value)
}

// noteSendError routes a failed frame write through the connection log and
// hermes_remote_send_errors_total, under the frame's kind.
func (s *Server) noteSendError(kind int, to net.Addr, err error) {
	s.Logf("remote: send %s to %s: %v", frameKinds[kind], to, err)
	s.sendErrors[kind].Inc()
}

// Serve accepts connections on l until Close. It always returns a non-nil
// error (net.ErrClosed after Close).
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Closed before it started serving: nothing would close l.
		s.mu.Unlock()
		l.Close()
		return net.ErrClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go s.handle(conn)
	}
}

// ListenAndServe listens on addr and serves.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Close stops the listener and all live connections.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	var err error
	if s.listener != nil {
		err = s.listener.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	return err
}

// OpenConns reports how many connections the server currently tracks.
// The interop harness asserts it returns to zero after fault scenarios.
func (s *Server) OpenConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

func (s *Server) dropConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.Close()
}

// handle serves one connection. The first line must be a hello offering a
// version this server speaks; then the multiplexed session loop runs. A
// stale peer — a pre-v2 client opening with its request, or a hello offering
// only other versions — is refused once: one error frame, one
// hermes_remote_refused_total bump, connection released. It is never served
// and never downgraded.
func (s *Server) handle(conn net.Conn) {
	defer s.dropConn(conn)
	if s.HeaderTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.HeaderTimeout))
	}
	in := newFrameReader(conn)
	var first frameIn
	if err := in.next(&first); err != nil {
		s.Logf("remote: bad request from %s: %v", conn.RemoteAddr(), err)
		return
	}
	conn.SetReadDeadline(time.Time{})
	ss := newServerSession(s, conn)
	defer ss.end()
	switch {
	case first.Op != OpHello:
		// err + done are the keys a pre-v2 client decodes on its reply.
		s.refused[refusedNotHello].Inc()
		ss.send(kindError, &Frame{Op: OpError, Done: true,
			Err: fmt.Sprintf("first line has op %q, want hello: this server speaks only protocol version %d", first.Op, ProtocolVersion)}, nil)
	case !versionSupported(first.Versions):
		s.refused[refusedVersion].Inc()
		ss.send(kindHello, &Frame{Op: OpHello,
			Err: fmt.Sprintf("unsupported protocol versions %v (server speaks %d)", first.Versions, ProtocolVersion)}, nil)
	default:
		s.serveSession(ss, in, first.Frame)
	}
}

func (s *Server) functionListing() map[string][]FnSpec {
	out := map[string][]FnSpec{}
	for _, name := range s.reg.Names() {
		d, ok := s.reg.Get(name)
		if !ok {
			continue
		}
		// Prefer the fallible listing: a mounted remote domain
		// (mediator-of-mediators) reports reachability errors there. An
		// unreachable mount is omitted rather than listed as empty.
		fns := d.Functions()
		if fl, isLister := d.(domain.FunctionLister); isLister {
			var err error
			if fns, err = fl.FunctionsErr(); err != nil {
				s.Logf("remote: listing functions of %q: %v", name, err)
				continue
			}
		}
		var specs []FnSpec
		for _, f := range fns {
			specs = append(specs, FnSpec{Name: f.Name, Arity: f.Arity, Doc: f.Doc})
		}
		out[name] = specs
	}
	return out
}

// serverSession is one multiplexed connection: a reader goroutine (the
// handler itself) dispatches incoming frames, per-call goroutines stream
// answers back through one frame writer, and dropping the connection —
// for any reason — cancels every in-flight call.
type serverSession struct {
	srv  *Server
	conn net.Conn
	out  frameWriter
	// clock times every call served on the session: a wall clock is only
	// an epoch, and serving measures differences on it.
	clock *vclock.Wall
	// ctx is the parent of every call's context; end cancels it, and so
	// every call in flight, when the connection ends.
	ctx context.Context
	end context.CancelFunc

	mu    sync.Mutex
	calls map[uint64]*serverCall
}

func newServerSession(srv *Server, conn net.Conn) *serverSession {
	ss := &serverSession{srv: srv, conn: conn, out: frameWriter{w: conn}, clock: vclock.NewWall(), calls: map[uint64]*serverCall{}}
	ss.ctx, ss.end = context.WithCancel(context.Background())
	return ss
}

// serverCall is one served call's record: what its call frame asked for,
// its domain context, held by value, and its cancellation.
type serverCall struct {
	ss       *serverSession
	id       uint64
	call     domain.Call
	traceID  string
	depth    int
	badValue error // an argument form that names no value
	ctx      domain.Ctx
	cancel   context.CancelFunc
}

// AppendTo names the call's serve span: "serve domain:function".
func (c *serverCall) AppendTo(dst []byte) []byte {
	return append(append(append(append(dst, "serve "...), c.call.Domain...), ':'), c.call.Function...)
}

// send writes one frame with body b (nil: none), routing failures through
// the send-error accounting. Concurrent per-call streams coalesce on the
// writer.
func (ss *serverSession) send(kind int, f *Frame, b *frameBody) bool {
	if err := ss.out.write(f, b); err != nil {
		ss.srv.noteSendError(kind, ss.conn.RemoteAddr(), err)
		return false
	}
	return true
}

// register records the call a call frame starts, with a cancellation
// context of its own. ok=false reports a duplicate in-flight id (a
// protocol violation by the client).
func (ss *serverSession) register(in *frameIn) (c *serverCall, ok bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if _, dup := ss.calls[in.ID]; dup {
		return nil, false
	}
	c = &serverCall{ss: ss, id: in.ID, call: domain.Call{Domain: in.Domain, Function: in.Function, Args: in.args},
		traceID: in.TraceID, depth: in.Depth, badValue: in.badValue}
	c.ctx.Clock = ss.clock
	c.ctx.Context, c.cancel = context.WithCancel(ss.ctx)
	ss.calls[in.ID] = c
	return c, true
}

// finish forgets call id, releasing its context.
func (ss *serverSession) finish(id uint64) {
	ss.mu.Lock()
	c := ss.calls[id]
	delete(ss.calls, id)
	ss.mu.Unlock()
	if c != nil {
		c.cancel()
	}
}

// cancel aborts call id if it is in flight (unknown ids are ignored: the
// call may have finished while the cancel frame was in transit).
func (ss *serverSession) cancel(id uint64) {
	ss.mu.Lock()
	c := ss.calls[id]
	ss.mu.Unlock()
	if c != nil {
		c.cancel()
	}
}

// serveSession answers an accepted hello and runs the session loop. The
// loop goroutine doubles as the per-connection reader the protocol
// requires: a dead or misbehaving client surfaces here as a read error
// immediately — not at the next flush boundary — and returns, and
// handle's end of the session cancels every in-flight call.
func (s *Server) serveSession(ss *serverSession, in *frameReader, hello Frame) {
	conn := ss.conn
	if !ss.send(kindHello, &Frame{Op: OpHello, Version: ProtocolVersion}, nil) {
		return
	}
	// The client announced its heartbeat period: a connection silent for
	// several periods is dead, not idle. Clients that do not heartbeat get
	// no idle deadline (their reads may legitimately pause forever).
	var idle time.Duration
	if hello.HeartbeatMS > 0 {
		idle = 4 * time.Duration(hello.HeartbeatMS) * time.Millisecond
		if idle < time.Second {
			idle = time.Second
		}
	}
	// A call is served by a goroutine that has served one before when one
	// is idle: it keeps the stack the calls grew, which a fresh goroutine
	// would grow again, copying it, for every call.
	next, quit, waiting := make(chan *serverCall), make(chan struct{}), make(chan struct{}, maxIdleServers)
	defer close(quit)
	var f frameIn
	for {
		if idle > 0 {
			conn.SetReadDeadline(time.Now().Add(idle))
		}
		if err := in.next(&f); err != nil {
			// EOF is the client hanging up; anything else (reset, idle
			// deadline, malformed frame) also ends the session — JSON
			// framing cannot resynchronize after garbage.
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				s.Logf("remote: session %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		switch f.Op {
		case OpCall:
			c, ok := ss.register(&f)
			if !ok {
				ss.send(kindError, &Frame{Op: OpError, ID: f.ID, Err: fmt.Sprintf("call id %d already in flight", f.ID)}, nil)
				continue
			}
			s.calls.Inc()
			select {
			case next <- c:
			default:
				go s.serveCalls(c, next, quit, waiting)
			}
		case OpCancel:
			ss.cancel(f.ID)
		case OpHeartbeat:
			ss.send(kindHeartbeat, &Frame{Op: OpHeartbeat, ID: f.ID}, nil)
		case OpFunctions:
			go ss.send(kindFunctions, &Frame{Op: OpFunctions, ID: f.ID, Functions: s.functionListing(), Done: true}, nil)
		case OpDebug:
			go s.serveDebug(ss, f.ID)
		default:
			ss.send(kindError, &Frame{Op: OpError, ID: f.ID, Err: fmt.Sprintf("unknown op %q", f.Op)}, nil)
		}
	}
}

// maxIdleServers bounds the goroutines a session keeps waiting for its
// next call, so a burst of concurrent calls does not leave one behind per
// call for as long as the connection lives.
const maxIdleServers = 16

// serveCalls serves c, then each call handed to it on next, until quit or
// until maxIdleServers others are waiting already; waiting holds a token
// per goroutine waiting.
func (s *Server) serveCalls(c *serverCall, next <-chan *serverCall, quit <-chan struct{}, waiting chan struct{}) {
	for {
		s.serveCall(c)
		select {
		case waiting <- struct{}{}:
		default:
			return
		}
		select {
		case c = <-next:
			<-waiting
		case <-quit:
			return
		}
	}
}

// answerLists recycles the lists served calls encode their answer chunks
// into. A call holds one until it ends, since calls on one session run
// concurrently; the frame writer copies a chunk out before send returns.
var answerLists = sync.Pool{New: func() any { return new([]byte) }}

// serveCall runs one multiplexed call. The first answer is flushed in
// its own frame immediately (first-answer-before-last-answer); later
// answers travel in chunkSize frames. Each answer is encoded into its
// frame's value list as the stream produces it, so one the wire cannot
// carry (a NaN, an infinity) ends the call with an error frame naming it.
// Cancellation — an explicit cancel frame or the whole connection
// dropping — is checked between answers, aborting the domain stream
// promptly even for trickling sources.
func (s *Server) serveCall(c *serverCall) {
	ss := c.ss
	defer ss.finish(c.id)
	fail := func(err error) {
		ss.send(kindError, &Frame{Op: OpError, ID: c.id, Err: err.Error(), Unavailable: errors.Is(err, domain.ErrUnavailable)}, nil)
	}
	if c.badValue != nil {
		fail(c.badValue)
		return
	}
	ctx := &c.ctx
	// Federated tracing: when the call frame carried trace context, serve
	// under a standalone span (outside this node's own query ring) that
	// travels back in a trace frame and keeps the caller's trace ID. Past
	// the depth limit the call is served normally, just without a subtree
	// — the cycle guard for mutually mounted nodes.
	var span *obs.Span
	if c.traceID != "" && s.TraceMaxDepth > 0 {
		if c.depth > s.TraceMaxDepth {
			s.traceDroppedDepth.Inc()
		} else {
			span = obs.NewSpan("", ctx.Clock.Now())
			span.SetName(c)
			span.SetTag("node", s.NodeName)
			span.SetTraceID(c.traceID)
			ctx.Span = span
			ctx.TraceDepth = c.depth
		}
	}
	serveStart := ctx.Clock.Now()
	stream, err := s.reg.Call(ctx, c.call)
	if err != nil {
		fail(err)
		return
	}
	defer stream.Close()
	sentFirst := false
	produced := 0
	var tFirst time.Duration
	list := answerLists.Get().(*[]byte)
	values := (*list)[:0] // the open frame's answer list
	defer func() {
		if cap(values) <= maxKeptLine {
			*list = values[:0]
			answerLists.Put(list)
		}
	}()
	inFrame := 0
	flush := func(done bool) bool {
		ok := ss.send(kindAnswers, &Frame{Op: OpAnswers, ID: c.id, Done: done}, &frameBody{values: values})
		values, inFrame = values[:0], 0
		return ok
	}
	for {
		if ctx.Context.Err() != nil {
			return // cancelled: abort the domain stream, send nothing
		}
		v, ok, err := stream.Next()
		if err != nil {
			fail(err)
			return
		}
		if !ok {
			// Complete stream: close the serve span with its measured
			// [Tf,Ta,Card] actual and queue the subtree ahead of the done
			// frame — one write carries both — so the caller stitches
			// before the call resolves.
			if span != nil {
				now := ctx.Clock.Now()
				span.SetActual(obs.Cost{TFirst: tFirst, TAll: now - serveStart, Card: float64(produced)})
				span.End(now)
				s.sendTrace(ss, c.id, span)
			}
			flush(true)
			return
		}
		if produced == 0 {
			tFirst = ctx.Clock.Now() - serveStart
		}
		produced++
		if inFrame > 0 {
			values = append(values, ',')
		}
		if values, err = term.AppendJSON(values, v); err != nil {
			fail(fmt.Errorf("answer %s: %w", v, err))
			return
		}
		inFrame++
		if !sentFirst || inFrame >= s.chunkSize {
			sentFirst = true
			if !flush(false) {
				return
			}
		}
	}
}

// sendTrace queues the serve span subtree as the call's trace frame, to
// leave in one write with the done frame after it. The subtree is encoded
// straight into the frame within the configured byte budget (pruning
// depth-first, tagging truncation); a root that alone exceeds it ships no
// frame.
func (s *Server) sendTrace(ss *serverSession, id uint64, span *obs.Span) {
	span.WithSnapshot(func(d obs.SpanData) {
		b := frameBody{span: &d, spanMax: s.TraceMaxSubtreeBytes}
		switch err := ss.out.queue(&Frame{Op: OpTrace, ID: id}, &b); {
		case errors.Is(err, errNoTrace):
		case err != nil:
			s.noteSendError(kindTrace, ss.conn.RemoteAddr(), err)
		case b.truncated:
			s.traceTruncated.Inc()
		}
	})
}

// serveDebug answers an OpDebug rollup request from the configured debug
// producer; nodes without one (or with a failing one) reply with an error
// frame, which the requesting peer reports as a degraded entry.
func (s *Server) serveDebug(ss *serverSession, id uint64) {
	fn := s.debugFn()
	if fn == nil {
		ss.send(kindDebug, &Frame{Op: OpDebug, ID: id, Err: "debug rollup not configured on this node", Done: true}, nil)
		return
	}
	payload, err := fn()
	if err != nil {
		ss.send(kindDebug, &Frame{Op: OpDebug, ID: id, Err: err.Error(), Done: true}, nil)
		return
	}
	ss.send(kindDebug, &Frame{Op: OpDebug, ID: id, Debug: payload, Done: true}, nil)
}
