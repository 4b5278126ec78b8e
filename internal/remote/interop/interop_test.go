package interop

import (
	"encoding/json"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/obs"
	"hermes/internal/remote"
	"hermes/internal/resilience"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// startServer spins a real remote.Server over the given domains.
func startServer(t *testing.T, cfg func(*remote.Server), doms ...domain.Domain) (*remote.Server, string) {
	t.Helper()
	reg := domain.NewRegistry()
	for _, d := range doms {
		reg.Register(d)
	}
	srv := remote.NewServer(reg)
	srv.Logf = func(string, ...any) {}
	if cfg != nil {
		cfg(srv)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, l.Addr().String()
}

func rangeDomain(n int, perAnswer time.Duration) *domaintest.Domain {
	d := domaintest.New("src")
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

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// --- Scenarios driving the real client with a scripted responder ---

// Timeout: a server that accepts the session but never answers anything.
// The client's frame deadline must bound the call and surface the typed
// retryable error on the one connection it dialled.
func TestScenarioTimeout(t *testing.T) {
	NoLeakCheck(t)
	wedgeAfterHello := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if AcceptHello(dec, enc, remote.ProtocolVersion) != nil {
			return
		}
		Wedge(conn)
	}
	addr := NewResponder(t, wedgeAfterHello)
	c := NewHarnessClient(addr, "src")
	defer c.Close()
	start := time.Now()
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
	if err != nil {
		t.Fatalf("call setup: %v", err)
	}
	defer s.Close()
	_, _, err = s.Next()
	if !errors.Is(err, domain.ErrUnavailable) {
		t.Errorf("Next = %v, want ErrUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("wedged call took %v, deadlines did not bound it", elapsed)
	}
}

// NewHarnessClient builds a client with deadlines short enough for fault
// scenarios.
func NewHarnessClient(addr, name string) *remote.Client {
	c := remote.NewClient(addr, name)
	c.SetDialTimeout(500 * time.Millisecond)
	c.SetFrameTimeout(150 * time.Millisecond)
	c.SetHeartbeatInterval(40 * time.Millisecond)
	return c
}

// Malformed frame: the responder answers the call with bytes that are not
// a frame. The client must fail the session, not trust the stream.
func TestScenarioMalformedFrameFromServer(t *testing.T) {
	NoLeakCheck(t)
	garbageAfterCall := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if AcceptHello(dec, enc, remote.ProtocolVersion) != nil {
			return
		}
		if _, err := ReadCall(dec); err != nil {
			return
		}
		conn.Write([]byte("{{{ this is not a frame\n"))
		Wedge(conn)
	}
	addr := NewResponder(t, garbageAfterCall)
	c := NewHarnessClient(addr, "src")
	defer c.Close()
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
	if err != nil {
		t.Fatalf("call setup: %v", err)
	}
	defer s.Close()
	if _, _, err = s.Next(); !errors.Is(err, domain.ErrUnavailable) {
		t.Errorf("Next = %v, want ErrUnavailable", err)
	}
}

// Truncated frame: the responder dies mid-frame. The partial JSON must not
// be delivered as data.
func TestScenarioTruncatedFrameFromServer(t *testing.T) {
	NoLeakCheck(t)
	truncate := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if AcceptHello(dec, enc, remote.ProtocolVersion) != nil {
			return
		}
		f, err := ReadCall(dec)
		if err != nil {
			return
		}
		conn.Write([]byte(`{"op":"answers","id":` + itoa(f.ID) + `,"values":[{"t":"i","s":"0"}`))
		// Connection closes on return: the frame never completes.
	}
	addr := NewResponder(t, truncate)
	c := NewHarnessClient(addr, "src")
	defer c.Close()
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
	if err != nil {
		t.Fatalf("call setup: %v", err)
	}
	defer s.Close()
	if _, _, err = s.Next(); !errors.Is(err, domain.ErrUnavailable) {
		t.Errorf("Next = %v, want ErrUnavailable", err)
	}
}

func itoa(n uint64) string {
	b, _ := json.Marshal(n)
	return string(b)
}

// Mid-stream drop: the responder streams three answers and kills the
// connection. The client ends the call with domain.ErrUnavailable; the
// resilience wrapper in front of it re-issues a plain call on a fresh
// connection, the responder replays all five answers, and the consumer sees
// every answer exactly once, after one stream resume.
func TestScenarioMidStreamDropResumes(t *testing.T) {
	NoLeakCheck(t)
	reissued := make(chan remote.Frame, 1)
	first := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if AcceptHello(dec, enc, remote.ProtocolVersion) != nil {
			return
		}
		f, err := ReadCall(dec)
		if err != nil {
			return
		}
		for i := 0; i < 3; i++ {
			enc.Encode(remote.Frame{Op: remote.OpAnswers, ID: f.ID, Values: intValues(i, i+1)})
		}
		// Drop the connection mid-stream (script return closes it).
	}
	second := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if AcceptHello(dec, enc, remote.ProtocolVersion) != nil {
			return
		}
		f, err := ReadCall(dec)
		if err != nil {
			return
		}
		reissued <- f
		enc.Encode(remote.Frame{Op: remote.OpAnswers, ID: f.ID, Values: intValues(0, 5), Done: true})
		Wedge(conn)
	}
	addr := NewResponder(t, first, second)
	c := NewHarnessClient(addr, "src")
	defer c.Close()
	w := resilience.Wrap(c, resilience.DefaultPolicy())
	s, err := w.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
	if err != nil {
		t.Fatalf("call setup: %v", err)
	}
	vals, err := domain.Collect(s)
	if err != nil {
		t.Fatalf("collect across drop: %v", err)
	}
	if len(vals) != 5 {
		t.Fatalf("answers = %d, want 5 exactly once each", len(vals))
	}
	for i, v := range vals {
		if !term.Equal(v, term.Int(int64(i))) {
			t.Errorf("answer %d = %v, want %d", i, v, i)
		}
	}
	if m := w.Metrics(); m.StreamResumes != 1 {
		t.Errorf("StreamResumes = %d, want 1", m.StreamResumes)
	}
	select {
	case f := <-reissued:
		if f.Op != remote.OpCall {
			t.Errorf("second connection got op %q, want a plain call", f.Op)
		}
	default:
		t.Error("responder never saw the re-issued call")
	}
}

// --- Scenarios driving the real server with a raw driver ---

// Stale version: a client offering only versions the server does not speak
// is rejected on the hello with a hard error frame, the connection is
// released, and the refusal is counted.
func TestScenarioStaleVersionAgainstServer(t *testing.T) {
	NoLeakCheck(t)
	ob := obs.NewObserver()
	srv, addr := startServer(t, func(s *remote.Server) { s.SetObserver(ob) }, rangeDomain(3, 0))
	d := DialDriver(t, addr)
	reply := d.Hello(99)
	if reply.Op != remote.OpHello || reply.Err == "" || reply.Version != 0 {
		t.Errorf("stale-version reply = %+v, want hello rejection", reply)
	}
	waitFor(t, "server to release the rejected connection", func() bool {
		return srv.OpenConns() == 0
	})
	if got := ob.Counter("hermes_remote_refused_total", "reason", "version").Value(); got != 1 {
		t.Errorf("version refusals counted = %d, want 1", got)
	}
}

// Malformed frame mid-session: after a clean handshake the driver sends
// garbage. The server must drop the session, cancel the in-flight call,
// and stay healthy for other clients.
func TestScenarioMalformedFrameAgainstServer(t *testing.T) {
	NoLeakCheck(t)
	meter := domaintest.Metered(rangeDomain(100000, 5*time.Millisecond))
	srv, addr := startServer(t, nil, meter)
	d := DialDriver(t, addr)
	if reply := d.Hello(remote.ProtocolVersion); reply.Version != remote.ProtocolVersion {
		t.Fatalf("hello reply = %+v", reply)
	}
	d.Send(remote.Frame{Op: remote.OpCall, ID: 1, Domain: "src", Function: "gen"})
	if f := d.MustRecv(2 * time.Second); f.Op != remote.OpAnswers {
		t.Fatalf("first frame = %+v, want answers", f)
	}
	d.SendRaw("certainly not json\n")
	waitFor(t, "server to cancel the call after garbage", func() bool {
		return meter.Current() == 0
	})
	waitFor(t, "server to drop the session", func() bool {
		return srv.OpenConns() == 0
	})
	// The server survives for a well-behaved client.
	c := remote.NewClient(addr, "src")
	defer c.Close()
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); !ok || err != nil {
		t.Fatalf("follow-up call: %v %v", ok, err)
	}
	s.Close()
}

// Truncated frame: the driver dies mid-frame. Same cleanup obligations.
func TestScenarioTruncatedFrameAgainstServer(t *testing.T) {
	NoLeakCheck(t)
	meter := domaintest.Metered(rangeDomain(100000, 5*time.Millisecond))
	srv, addr := startServer(t, nil, meter)
	d := DialDriver(t, addr)
	if reply := d.Hello(remote.ProtocolVersion); reply.Version != remote.ProtocolVersion {
		t.Fatalf("hello reply = %+v", reply)
	}
	d.Send(remote.Frame{Op: remote.OpCall, ID: 1, Domain: "src", Function: "gen"})
	if f := d.MustRecv(2 * time.Second); f.Op != remote.OpAnswers {
		t.Fatalf("first frame = %+v, want answers", f)
	}
	d.SendRaw(`{"op":"cancel","id`) // cut mid-key
	d.Close()
	waitFor(t, "server to cancel the call after truncation", func() bool {
		return meter.Current() == 0
	})
	waitFor(t, "server to drop the session", func() bool {
		return srv.OpenConns() == 0
	})
}

// Mid-stream drop: the driver vanishes without a cancel frame while a
// trickling call streams. The per-connection reader must notice
// immediately — not at a flush boundary — and abort the domain stream.
func TestScenarioMidStreamDropAgainstServer(t *testing.T) {
	NoLeakCheck(t)
	meter := domaintest.Metered(rangeDomain(100000, 10*time.Millisecond))
	srv, addr := startServer(t, nil, meter)
	d := DialDriver(t, addr)
	if reply := d.Hello(remote.ProtocolVersion); reply.Version != remote.ProtocolVersion {
		t.Fatalf("hello reply = %+v", reply)
	}
	d.Send(remote.Frame{Op: remote.OpCall, ID: 7, Domain: "src", Function: "gen"})
	if f := d.MustRecv(2 * time.Second); f.Op != remote.OpAnswers || f.ID != 7 {
		t.Fatalf("first frame = %+v, want answers for call 7", f)
	}
	d.Close()
	waitFor(t, "server to abort the trickling call after peer drop", func() bool {
		return meter.Current() == 0
	})
	waitFor(t, "server to drop the session", func() bool {
		return srv.OpenConns() == 0
	})
}

// Slowloris: a connection that never sends its first line is dropped at
// the header deadline.
func TestScenarioSlowlorisAgainstServer(t *testing.T) {
	NoLeakCheck(t)
	srv, addr := startServer(t, func(s *remote.Server) {
		s.HeaderTimeout = 60 * time.Millisecond
	}, rangeDomain(1, 0))
	d := DialDriver(t, addr)
	_ = d
	waitFor(t, "server to shed the silent connection", func() bool {
		return srv.OpenConns() == 0
	})
}

// Cancel frame: cancelling one call must not disturb a second call
// multiplexed on the same connection.
func TestScenarioCancelIsPerCall(t *testing.T) {
	NoLeakCheck(t)
	meter := domaintest.Metered(rangeDomain(100000, 5*time.Millisecond))
	fast := domaintest.New("fast")
	fast.Define("gen", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(42)}, nil
		}})
	_, addr := startServer(t, nil, meter, fast)
	d := DialDriver(t, addr)
	if reply := d.Hello(remote.ProtocolVersion); reply.Version != remote.ProtocolVersion {
		t.Fatalf("hello reply = %+v", reply)
	}
	d.Send(remote.Frame{Op: remote.OpCall, ID: 1, Domain: "src", Function: "gen"})
	if f := d.MustRecv(2 * time.Second); f.Op != remote.OpAnswers || f.ID != 1 {
		t.Fatalf("first frame = %+v", f)
	}
	d.Send(remote.Frame{Op: remote.OpCancel, ID: 1})
	waitFor(t, "call 1 to abort", func() bool { return meter.Current() == 0 })
	// Call 2 on the same connection still works end to end.
	d.Send(remote.Frame{Op: remote.OpCall, ID: 2, Domain: "fast", Function: "gen"})
	deadline := time.Now().Add(2 * time.Second)
	var got []term.Value
	for {
		if time.Now().After(deadline) {
			t.Fatal("never saw call 2 complete")
		}
		f, err := d.Recv(2 * time.Second)
		if err != nil {
			t.Fatalf("recv: %v", err)
		}
		if f.ID != 2 {
			continue // residual frames of the cancelled call are permitted
		}
		if f.Op != remote.OpAnswers {
			t.Fatalf("call 2 frame = %+v", f)
		}
		for _, w := range f.Values {
			var r term.JSONReader
			r.Reset(w)
			v, err := r.Value()
			if err != nil {
				t.Fatalf("decode call 2 value: %v", err)
			}
			got = append(got, v)
		}
		if f.Done {
			break
		}
	}
	if len(got) != 1 || !term.Equal(got[0], term.Int(42)) {
		t.Fatalf("call 2 answers = %v, want [42]", got)
	}
}

// Resume frame: the wire no longer resumes, so a `resume` frame from an
// older client is an op the server does not speak. It gets the unknown-op
// error frame for its id, never reaches a source, and the session survives
// for the next call.
func TestScenarioResumeFrameRefused(t *testing.T) {
	NoLeakCheck(t)
	meter := domaintest.Metered(rangeDomain(3, 0))
	srv, addr := startServer(t, nil, meter)
	d := DialDriver(t, addr)
	if reply := d.Hello(remote.ProtocolVersion); reply.Version != remote.ProtocolVersion {
		t.Fatalf("hello reply = %+v", reply)
	}
	d.SendRaw(`{"op":"resume","id":1,"domain":"src","function":"gen","offset":2}` + "\n")
	f := d.MustRecv(2 * time.Second)
	if f.Op != remote.OpError || f.ID != 1 || f.Unavailable || !strings.Contains(f.Err, `unknown op "resume"`) {
		t.Errorf("resume reply = %+v, want the unknown-op error frame for id 1", f)
	}
	if meter.Total() != 0 {
		t.Errorf("the resume frame reached the source %d times", meter.Total())
	}
	d.Send(remote.Frame{Op: remote.OpCall, ID: 2, Domain: "src", Function: "gen"})
	var got int
	for {
		f := d.MustRecv(2 * time.Second)
		if f.ID != 2 || f.Op != remote.OpAnswers {
			t.Fatalf("call 2 frame = %+v, want answers", f)
		}
		got += len(f.Values)
		if f.Done {
			break
		}
	}
	if got != 3 {
		t.Errorf("call 2 answers = %d, want 3", got)
	}
	if n := srv.OpenConns(); n != 1 {
		t.Errorf("OpenConns = %d, want the one session that survived", n)
	}
}
