package remote

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// ErrProtocolMismatch reports a peer that failed the hello negotiation: it
// answered with something other than a hello frame (a pre-v2 server),
// rejected every offered version, or picked one never offered. It is a hard
// error, deliberately not domain.ErrUnavailable: retrying cannot fix a peer
// that speaks another protocol, and an outage breaker must not trip on it.
var ErrProtocolMismatch = errors.New("remote: protocol mismatch")

// Client exposes one domain hosted by a remote server as a local
// domain.Domain. It multiplexes every call over one persistent
// heartbeat-kept connection; a broken connection ends every call on it
// with domain.ErrUnavailable, which the resilience layer re-issues.
// Closing an answer stream cancels the server-side call (pruning across
// the network).
type Client struct {
	addr    string
	name    string
	dialTO  time.Duration
	frameTO time.Duration
	hbEvery time.Duration

	mu         sync.Mutex
	specs      []domain.FuncSpec
	sess       *session
	nextID     uint64
	actuals    func(domain.Call, obs.Cost)
	maxForeign int

	// Event tallies, attached to the metrics registry by SetObserver.
	dials                          [2]obs.Counter // dialOK, dialError
	tracePropagated, traceStitched obs.Counter
	traceForeignBytes              obs.Counter
	traceMalformed                 [2]obs.Counter // traceDecode, traceOversize
}

const (
	dialOK, dialError          = 0, 1 // hermes_remote_dials_total's outcomes
	traceDecode, traceOversize = 0, 1 // hermes_trace_malformed_total's reasons
)

// NewClient creates a client for the domain `name` served at addr.
func NewClient(addr, name string) *Client {
	return &Client{
		addr:       addr,
		name:       name,
		dialTO:     5 * time.Second,
		frameTO:    30 * time.Second,
		hbEvery:    10 * time.Second,
		maxForeign: DefaultTraceMaxSubtreeBytes,
	}
}

// SetDialTimeout overrides the default 5 s dial timeout.
func (c *Client) SetDialTimeout(d time.Duration) { c.dialTO = d }

// SetFrameTimeout overrides the default 30 s per-frame read deadline: how
// long a stream read may go without any frame arriving before the server
// counts as wedged and the call surfaces domain.ErrUnavailable. Heartbeat
// echoes refresh the deadline, so it must exceed the heartbeat interval.
// 0 disables the deadline.
func (c *Client) SetFrameTimeout(d time.Duration) { c.frameTO = d }

// SetHeartbeatInterval overrides the default 10 s heartbeat period.
// 0 disables heartbeats (and the server's idle deadline for this client).
func (c *Client) SetHeartbeatInterval(d time.Duration) { c.hbEvery = d }

// SetObserver attaches the client's tallies to the observer's metrics
// registry: hermes_remote_dials_total under this client's domain label, and
// the caller-side federated-tracing families, which every mount's client
// feeds (they sum). Those families are declared here and nowhere else.
func (c *Client) SetObserver(o *obs.Observer) {
	r := o.Registry()
	for i, outcome := range [2]string{dialOK: "ok", dialError: "error"} {
		r.AttachCounter("hermes_remote_dials_total", "TCP dials to remote domain servers, by outcome", c.dials[i].Value, "domain", c.name, "outcome", outcome)
	}
	r.AttachCounter("hermes_trace_propagated_total", "remote calls sent with federated trace context", c.tracePropagated.Value)
	r.AttachCounter("hermes_trace_stitched_total", "peer span subtrees stitched under local call spans", c.traceStitched.Value)
	r.AttachCounter("hermes_trace_foreign_subtree_bytes_total", "bytes of peer span subtrees received in trace frames", c.traceForeignBytes.Value)
	for i, reason := range [2]string{traceDecode: "decode", traceOversize: "oversize"} {
		r.AttachCounter("hermes_trace_malformed_total", "peer span subtrees dropped instead of stitched, by reason", c.traceMalformed[i].Value, "reason", reason)
	}
}

// SetActualsHook installs fn, called with the remote-reported [Tf,Ta,Card]
// actual of every complete stitched call subtree. core.System wires it to
// the caller-side calibration so adaptive planning prices mounted domains
// from observed cross-hop cost, not just local wire timings.
func (c *Client) SetActualsHook(fn func(domain.Call, obs.Cost)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.actuals = fn
}

func (c *Client) actualsHook() func(domain.Call, obs.Cost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.actuals
}

// SetMaxForeignSubtreeBytes overrides how large a peer's trace-frame span
// subtree may be before it is dropped as oversized (default 1 MiB; <= 0
// means unlimited). A guard against misbehaving peers, independent of the
// server-side truncation budget.
func (c *Client) SetMaxForeignSubtreeBytes(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxForeign = n
}

func (c *Client) maxForeignBytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxForeign
}

// Close tears down the persistent session, if any. The client remains
// usable: the next call re-establishes a session.
func (c *Client) Close() error {
	c.mu.Lock()
	s := c.sess
	c.mu.Unlock()
	if s != nil {
		s.fail(fmt.Errorf("%w: client closed", domain.ErrUnavailable))
	}
	return nil
}

// Name implements domain.Domain.
func (c *Client) Name() string { return c.name }

// Addr returns the server address this client dials.
func (c *Client) Addr() string { return c.addr }

// Functions implements domain.Domain. The interface cannot report errors;
// callers that must distinguish "no functions" from "server unreachable"
// (the registry's validation does) use FunctionsErr instead.
func (c *Client) Functions() []domain.FuncSpec {
	specs, _ := c.FunctionsErr()
	return specs
}

// FunctionsErr implements domain.FunctionLister, fetching (and caching)
// the remote listing. An unreachable server surfaces domain.ErrUnavailable
// — a retryable condition — rather than masquerading as a function-less
// domain; nothing is cached on failure, so a later probe retries.
func (c *Client) FunctionsErr() ([]domain.FuncSpec, error) {
	c.mu.Lock()
	if c.specs != nil {
		specs := c.specs
		c.mu.Unlock()
		return specs, nil
	}
	c.mu.Unlock()
	listing, err := c.listing()
	if err != nil {
		return nil, err
	}
	specs := make([]domain.FuncSpec, 0, len(listing[c.name]))
	for _, spec := range listing[c.name] {
		specs = append(specs, domain.FuncSpec{Name: spec.Name, Arity: spec.Arity, Doc: spec.Doc})
	}
	c.mu.Lock()
	c.specs = specs
	c.mu.Unlock()
	return specs, nil
}

// listing asks the server for the function listing of every domain it
// hosts.
func (c *Client) listing() (map[string][]FnSpec, error) {
	sess, err := c.getSession()
	if err != nil {
		return nil, err
	}
	id := c.newID()
	slot := newCallSlot()
	sess.registerCall(id, slot)
	defer sess.forget(id)
	if err := sess.send("functions", &Frame{Op: OpFunctions, ID: id}, nil); err != nil {
		return nil, err
	}
	var timeout <-chan time.Time
	if c.frameTO > 0 {
		t := time.NewTimer(c.frameTO)
		defer t.Stop()
		timeout = t.C
	}
	f, err := sess.await(slot, timeout)
	switch {
	case err != nil:
		return nil, err
	case f == nil:
		sess.fail(fmt.Errorf("%w: functions listing from %s timed out", domain.ErrUnavailable, c.addr))
		return nil, sess.failure()
	case f.Err != "":
		return nil, fmt.Errorf("remote: %s", f.Err)
	}
	return f.Functions, nil
}

// Call implements domain.Domain as one multiplexed call on the shared
// session. The call's stream is its one record, routing slot included; its
// arguments are encoded straight into the frame writer's buffer.
func (c *Client) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx.Span.SetTag("remote", c.addr)
	sess, err := c.getSession()
	if err != nil {
		return nil, err
	}
	id := c.newID()
	f := Frame{Op: OpCall, ID: id, Domain: c.name, Function: fn}
	st := &muxStream{c: c, sess: sess, id: id, cctx: ctx.Context, span: ctx.Span}
	st.slot.ready = make(chan struct{}, 1)
	if ctx.Clock != nil {
		st.clock = ctx.Clock
		st.issuedAt = ctx.Clock.Now()
	}
	// Federated tracing: when the server negotiated CapTrace and this call
	// is traced locally, propagate the trace context — the query's trace
	// ID, minted at the origin by its first remote call — so the server's
	// serve subtree comes back in a trace frame and stitches under this
	// call span.
	if sess.traceOK && ctx.Span != nil {
		f.TraceID = ctx.Span.TraceID()
		f.Depth = ctx.TraceDepth + 1
		st.call = domain.Call{Domain: c.name, Function: fn, Args: args}
		st.propagated, st.slot.traced = true, true
		c.tracePropagated.Inc()
	}
	sess.registerCall(id, &st.slot)
	if err := sess.send("call", &f, &frameBody{args: args}); err != nil {
		sess.forget(id)
		return nil, err
	}
	return st, nil
}

// newID allocates a call ID. IDs are client-scoped (not session-scoped) so
// a call re-issued on a fresh session can never collide with a stale one.
func (c *Client) newID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return c.nextID
}

// getSession returns the live session, dialing and negotiating one if
// needed. ErrProtocolMismatch reports a peer that failed the hello; other
// errors are retryable transport failures.
func (c *Client) getSession() (*session, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess != nil && c.sess.alive() {
		return c.sess, nil
	}
	c.sess = nil
	conn, err := net.DialTimeout("tcp", c.addr, c.dialTO)
	if err != nil {
		c.dials[dialError].Inc()
		return nil, fmt.Errorf("%w: dial %s: %v", domain.ErrUnavailable, c.addr, err)
	}
	c.dials[dialOK].Inc()
	// Bound the whole hello exchange: a server that accepts but never
	// answers must not wedge call setup.
	helloTO := c.frameTO
	if helloTO <= 0 {
		helloTO = c.dialTO
	}
	if helloTO > 0 {
		conn.SetDeadline(time.Now().Add(helloTO))
	}
	s := &session{
		c:     c,
		out:   frameWriter{w: conn},
		in:    newFrameReader(conn),
		conn:  conn,
		done:  make(chan struct{}),
		calls: map[uint64]*callSlot{},
	}
	hello := Frame{Op: OpHello, Versions: []int{ProtocolVersion}, Caps: []string{CapTrace, CapDebug}}
	if c.hbEvery > 0 {
		hello.HeartbeatMS = int(c.hbEvery / time.Millisecond)
	}
	if err := s.out.write(&hello, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: send hello to %s: %v", domain.ErrUnavailable, c.addr, err)
	}
	var reply frameIn
	if err := s.in.next(&reply); err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: read hello reply from %s: %v", domain.ErrUnavailable, c.addr, err)
	}
	conn.SetDeadline(time.Time{})
	// Every hello failure is a hard protocol mismatch, not a retryable
	// outage, and never a downgrade to another protocol.
	switch {
	case reply.Op != OpHello:
		// A pre-v2 server answers the hello with an op-less unknown-op
		// error frame.
		err = fmt.Errorf("%w: %s did not answer the hello with a hello frame (err %q)", ErrProtocolMismatch, c.addr, reply.Err)
	case reply.Err != "":
		// The server rejected every version we offered.
		err = fmt.Errorf("%w: %s: %s", ErrProtocolMismatch, c.addr, reply.Err)
	case reply.Version != ProtocolVersion:
		// The server picked a version we never offered: a protocol bug or
		// an incompatible future server.
		err = fmt.Errorf("%w: %s chose unsupported protocol version %d", ErrProtocolMismatch, c.addr, reply.Version)
	}
	if err != nil {
		conn.Close()
		return nil, err
	}
	s.traceOK = capSupported(reply.Caps, CapTrace)
	s.debugOK = capSupported(reply.Caps, CapDebug)
	c.sess = s
	go s.readLoop()
	if c.hbEvery > 0 {
		go s.heartbeatLoop(c.hbEvery)
	}
	return s, nil
}

// dropSession clears the cached session if it is still s (a newer session
// must not be evicted by a stale failure).
func (c *Client) dropSession(s *session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sess == s {
		c.sess = nil
	}
}

// session is one live connection: a reader goroutine routes frames to
// per-call slots, a heartbeat goroutine keeps the connection verifiably
// alive, and any failure cancels everything at once.
type session struct {
	c   *Client
	out frameWriter
	in  *frameReader // read by the hello exchange, then by readLoop alone
	// Capabilities the server's hello granted: trace subtree frames and
	// debug rollup requests. Immutable after negotiation.
	traceOK bool
	debugOK bool

	conn     net.Conn
	done     chan struct{}
	failOnce sync.Once
	errMu    sync.Mutex
	err      error

	mu    sync.Mutex
	calls map[uint64]*callSlot
}

// callSlot is the routing slot of one in-flight call: what the reader has
// routed and the call has not yet taken, growing from empty. The reader
// never blocks on it, so one call's unread answers cannot stall the
// frames of another on the same session; the price is that a call's
// undelivered answers are buffered here, bounded only by its answer set,
// because the protocol has no per-call flow control. A domain call's slot
// lives in its muxStream; a one-shot request (functions, debug) has its
// own.
type callSlot struct {
	ready chan struct{} // signalled, without blocking, when something arrives

	mu     sync.Mutex
	values []term.Value
	traced bool    // the call stitches a trace frame; set before it routes
	trace  *[]byte // the call's trace frame payload, copied off the line
	done   bool    // the server's done answers frame arrived
	bad    error   // an answers frame carried a form that names no value
	// reply is the frame that ended the call otherwise: an error, a
	// functions or debug reply, or an op a call does not expect.
	reply *Frame
}

func newCallSlot() *callSlot { return &callSlot{ready: make(chan struct{}, 1)} }

// tracePayloads recycles the copies of trace frame payloads that traced
// calls take off the reader's line, each until its call has decoded it.
var tracePayloads = sync.Pool{New: func() any { return new([]byte) }}

// route files one frame. Nothing routes after the frame that ends the
// call: a trace frame sent after done is never stitched.
func (c *callSlot) route(in *frameIn) {
	c.mu.Lock()
	if c.done || c.bad != nil || c.reply != nil {
		c.mu.Unlock()
		return
	}
	switch {
	case in.Op == OpAnswers && in.badValue != nil:
		c.bad = in.badValue
	case in.Op == OpAnswers:
		if len(c.values) == 0 {
			c.values = in.values // the frame's own list: no copy
		} else {
			c.values = append(c.values, in.values...)
		}
		c.done = in.Done
	case in.Op == OpTrace:
		if c.traced { // else nothing would stitch it
			p := tracePayloads.Get().(*[]byte)
			*p = append((*p)[:0], in.Trace...)
			c.trace = p
		}
	default:
		f := in.Frame
		f.Trace = nil // it points into the line
		c.reply = &f
	}
	c.mu.Unlock()
	select {
	case c.ready <- struct{}{}:
	default:
	}
}

// await waits for the reply frame of a one-shot request (functions,
// debug). A nil frame with a nil error means the timeout fired.
func (s *session) await(c *callSlot, timeout <-chan time.Time) (*Frame, error) {
	for {
		select {
		case <-c.ready:
			c.mu.Lock()
			f := c.reply
			c.mu.Unlock()
			if f != nil {
				return f, nil
			}
		case <-s.done:
			return nil, s.failure()
		case <-timeout:
			return nil, nil
		}
	}
}

func (s *session) alive() bool {
	select {
	case <-s.done:
		return false
	default:
		return true
	}
}

// fail terminates the session exactly once: records the error, wakes every
// waiter, closes the connection, and uncaches the session.
func (s *session) fail(err error) {
	s.failOnce.Do(func() {
		s.errMu.Lock()
		s.err = err
		s.errMu.Unlock()
		close(s.done)
		s.conn.Close()
		s.c.dropSession(s)
	})
}

func (s *session) failure() error {
	s.errMu.Lock()
	defer s.errMu.Unlock()
	if s.err == nil {
		return fmt.Errorf("%w: session to %s failed", domain.ErrUnavailable, s.c.addr)
	}
	return s.err
}

// send writes one frame with body b (nil: none). Concurrent calls
// coalesce on the writer. It returns the frame's own error — an argument
// with no JSON form — or, after a write failure, which kills the whole
// session (the connection is broken), the session's.
func (s *session) send(what string, f *Frame, b *frameBody) error {
	err := s.out.write(f, b)
	if err != nil && s.out.broken() {
		s.fail(fmt.Errorf("%w: send %s to %s: %v", domain.ErrUnavailable, what, s.c.addr, err))
		return s.failure()
	}
	return err
}

func (s *session) registerCall(id uint64, c *callSlot) {
	s.mu.Lock()
	s.calls[id] = c
	s.mu.Unlock()
}

func (s *session) forget(id uint64) {
	s.mu.Lock()
	delete(s.calls, id)
	s.mu.Unlock()
}

// readLoop is the session's reader goroutine: it routes every incoming
// frame to its call's slot. The per-read deadline is the wedged-server
// detector — heartbeat echoes arrive at least every hbEvery, so a
// connection silent for frameTO is dead, and every in-flight call learns
// it immediately via s.done rather than blocking forever.
func (s *session) readLoop() {
	var in frameIn
	for {
		if s.c.frameTO > 0 {
			s.conn.SetReadDeadline(time.Now().Add(s.c.frameTO))
		}
		if err := s.in.next(&in); err != nil {
			s.fail(fmt.Errorf("%w: session read from %s: %v", domain.ErrUnavailable, s.c.addr, err))
			return
		}
		if in.Op == OpHeartbeat && in.ID == 0 {
			continue // echo of our keepalive; the read refreshed the deadline
		}
		s.mu.Lock()
		c := s.calls[in.ID]
		s.mu.Unlock()
		if c != nil { // else the call finished while the frame was in transit
			c.route(&in)
		}
	}
}

func (s *session) heartbeatLoop(every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.send("heartbeat", &Frame{Op: OpHeartbeat}, nil) != nil {
				return
			}
		case <-s.done:
			return
		}
	}
}

// muxStream is one call's answer stream, and the call's one record: it
// holds the call's routing slot. On session failure it delivers what was
// already routed to its slot, then ends with the session's
// domain.ErrUnavailable: the resilience layer re-issues the call and skips
// the delivered prefix.
type muxStream struct {
	slot callSlot // shared with the session reader; the rest is the stream's
	c    *Client
	sess *session
	id   uint64
	cctx context.Context

	// Federated-tracing state: the local call span foreign subtrees stitch
	// under, whether the trace context was propagated and the call it
	// went with (for the actuals hook), and the local clock reading when
	// the call was issued (the rebase point for the peer's subtree).
	span       *obs.Span
	clock      vclock.Clock
	issuedAt   time.Duration
	propagated bool
	call       domain.Call

	pending  []term.Value
	srvDone  bool  // the server ended the call: done, or an error frame
	err      error // what ends the stream once pending is delivered
	finished bool
}

func (s *muxStream) Next() (term.Value, bool, error) {
	for {
		if len(s.pending) > 0 {
			v := s.pending[0]
			s.pending[0] = nil // the list shares its frame's arena: retain no more of it than needed
			s.pending = s.pending[1:]
			return v, true, nil
		}
		if s.finished {
			return nil, false, nil
		}
		if s.err != nil {
			s.finish(true) // no cancel if the server ended the call itself
			return nil, false, s.err
		}
		if s.srvDone {
			s.finish(false)
			return nil, false, nil
		}
		var ctxDone <-chan struct{}
		if s.cctx != nil {
			ctxDone = s.cctx.Done()
		}
		select {
		case <-s.slot.ready:
			s.take()
		case <-s.sess.done:
			// Frames routed before the failure may still sit in the slot;
			// deliver them before deciding the stream is broken.
			if s.take() {
				continue
			}
			s.finish(false)
			return nil, false, s.sess.failure()
		case <-ctxDone:
			s.finish(true)
			return nil, false, s.cctx.Err()
		}
	}
}

// take moves what the slot holds into the stream and reports whether
// there was anything. It runs only once pending is delivered, so the
// values that arrived before an error frame are still delivered before
// the error.
func (s *muxStream) take() bool {
	c := &s.slot
	c.mu.Lock()
	values, trace, done, bad, reply := c.values, c.trace, c.done, c.bad, c.reply
	c.values, c.trace = nil, nil
	c.mu.Unlock()
	s.acceptTrace(trace)
	s.pending = values
	s.srvDone = done
	switch {
	case bad != nil:
		s.err = bad
	case reply == nil:
	case reply.Op == OpError:
		s.srvDone = true
		if reply.Unavailable {
			s.err = fmt.Errorf("%w: %s", domain.ErrUnavailable, reply.Err)
		} else {
			s.err = fmt.Errorf("remote: %s", reply.Err)
		}
	default:
		s.err = fmt.Errorf("remote: unexpected frame op %q on call %d", reply.Op, reply.ID)
	}
	return len(values) > 0 || trace != nil || done || s.err != nil
}

// acceptTrace stitches the server's serve subtree under the local call
// span: validate, rebase onto this call's clock at issue time, split wire
// time from remote compute, and feed the remote actual to the calibration
// hook. Every failure mode (oversize, malformed) drops the subtree and
// counts it — the call itself always succeeds with a local-only trace.
// The payload goes back to the pool: the subtree does not alias it.
func (s *muxStream) acceptTrace(p *[]byte) {
	if p == nil {
		return
	}
	defer tracePayloads.Put(p)
	raw := *p
	if len(raw) == 0 {
		return
	}
	s.c.traceForeignBytes.Add(int64(len(raw)))
	if max := s.c.maxForeignBytes(); max > 0 && len(raw) > max {
		s.c.traceMalformed[traceOversize].Inc()
		s.span.SetTag("remote.trace", "oversize")
		return
	}
	d, err := obs.DecodeSpanJSON(raw)
	if err != nil {
		s.c.traceMalformed[traceDecode].Inc()
		s.span.SetTag("remote.trace", "malformed")
		return
	}
	if s.clock != nil {
		elapsed := s.clock.Now() - s.issuedAt
		s.span.SetTagMillis("remote.wire_ms", max(elapsed-d.Duration(), 0))
		obs.RebaseSpan(&d, s.issuedAt) // decoded for this call alone
	}
	s.span.AttachForeign(&d)
	s.c.traceStitched.Inc()
	if d.Actual != nil {
		if hook := s.c.actualsHook(); hook != nil {
			hook(s.call, *d.Actual)
		}
	}
}

// finish deregisters the call; sendCancel additionally tells the server to
// stop a call that is still producing (pruning across the network).
func (s *muxStream) finish(sendCancel bool) {
	if s.finished {
		return
	}
	s.finished = true
	s.sess.forget(s.id)
	if sendCancel && !s.srvDone && s.sess.alive() {
		s.sess.send("cancel", &Frame{Op: OpCancel, ID: s.id}, nil)
	}
}

func (s *muxStream) Close() error {
	s.finish(true)
	s.pending = nil
	return nil
}

// DebugSnapshot asks the peer for its debug rollup payload (the
// /debug/cluster contribution) over the session. Peers that fail the
// hello, peers that did not grant CapDebug, and peers without a configured
// rollup all return an error; the caller marks them degraded rather than failing the
// whole cluster view. timeout bounds the round trip (0 falls back to the
// frame timeout).
func (c *Client) DebugSnapshot(timeout time.Duration) ([]byte, error) {
	sess, err := c.getSession()
	if err != nil {
		return nil, err
	}
	if !sess.debugOK {
		return nil, fmt.Errorf("remote: %s did not grant the debug capability", c.addr)
	}
	id := c.newID()
	slot := newCallSlot()
	sess.registerCall(id, slot)
	defer sess.forget(id)
	if err := sess.send("debug", &Frame{Op: OpDebug, ID: id}, nil); err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = c.frameTO
	}
	var tc <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		tc = t.C
	}
	f, err := sess.await(slot, tc)
	switch {
	case err != nil:
		return nil, err
	case f == nil:
		// Unlike a wedged session read, a slow debug reply should not kill
		// the shared session: calls may be healthy while the rollup fn is
		// slow. The pending slot is forgotten; a late reply is dropped.
		return nil, fmt.Errorf("%w: debug rollup from %s timed out", domain.ErrUnavailable, c.addr)
	case f.Err != "":
		return nil, fmt.Errorf("remote: %s", f.Err)
	}
	return f.Debug, nil
}

// DiscoverDomains asks a server which domains it hosts: hello, one
// functions listing, close. timeout bounds the dial and each reply.
func DiscoverDomains(addr string, timeout time.Duration) ([]string, error) {
	c := NewClient(addr, "")
	c.dialTO, c.frameTO, c.hbEvery = timeout, timeout, 0
	defer c.Close()
	listing, err := c.listing()
	if err != nil {
		return nil, err
	}
	out := make([]string, 0, len(listing))
	for name := range listing {
		out = append(out, name)
	}
	sort.Strings(out)
	return out, nil
}
