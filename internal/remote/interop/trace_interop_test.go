package interop

import (
	"encoding/json"
	"net"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/remote"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// tracedHarnessCtx builds a call context carrying a live span, the shape
// a traced query hands the remote client.
func tracedHarnessCtx() (*domain.Ctx, *obs.Span) {
	root := obs.NewSpan("?- q.", 0)
	call := root.Child("call src:gen()", 0)
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	ctx.Span = call
	return ctx, call
}

// intValues is the wire text of the ints lo..hi-1, as a Frame's Values.
func intValues(lo, hi int) []json.RawMessage {
	var vals []json.RawMessage
	for i := lo; i < hi; i++ {
		text, _ := term.AppendJSON(nil, term.Int(int64(i)))
		vals = append(vals, text)
	}
	return vals
}

func sendAnswers(enc *json.Encoder, id uint64, n int, done bool) {
	enc.Encode(remote.Frame{Op: remote.OpAnswers, ID: id, Values: intValues(0, n), Done: done})
}

// A v2 peer without trace support (an older build) ignores the trace
// context: the client sends it anyway, the peer skips the unknown keys,
// the same answers arrive, and the span stays local — no trace frame,
// nothing stitched.
func TestScenarioV2PeerWithoutTraceCap(t *testing.T) {
	NoLeakCheck(t)
	sawTraceID := make(chan bool, 1)
	script := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if AcceptHello(dec, enc, remote.ProtocolVersion) != nil {
			return
		}
		f, err := ReadCall(dec)
		if err != nil {
			return
		}
		sawTraceID <- f.TraceID != "" && f.Depth == 1
		sendAnswers(enc, f.ID, 3, true)
		Wedge(conn)
	}
	addr := NewResponder(t, script)
	c := NewHarnessClient(addr, "src")
	defer c.Close()
	ob := obs.NewObserver()
	c.SetObserver(ob)

	ctx, call := tracedHarnessCtx()
	s, err := c.Call(ctx, "gen", nil)
	if err != nil {
		t.Fatalf("call setup: %v", err)
	}
	vals, err := domain.Collect(s)
	if err != nil || len(vals) != 3 {
		t.Fatalf("vals=%d err=%v, want 3 answers", len(vals), err)
	}
	if !<-sawTraceID {
		t.Error("the traced call frame did not carry trace_id and depth 1")
	}
	call.End(0)
	snap := call.Snapshot()
	if len(snap.Children) != 0 {
		t.Errorf("local-only span grew children: %+v", snap.Children)
	}
	m := ob.Metrics.Snapshot()
	if m["hermes_trace_propagated_total"] != 1 || m["hermes_trace_stitched_total"] != 0 {
		t.Errorf("propagated / stitched = %v / %v, want 1 / 0",
			m["hermes_trace_propagated_total"], m["hermes_trace_stitched_total"])
	}
}

// A buggy peer that ships its trace frame after the done frame: the call
// must already have resolved cleanly, and the late subtree is dropped —
// never stitched into a finished span.
func TestScenarioTraceFrameAfterDone(t *testing.T) {
	NoLeakCheck(t)
	script := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if AcceptHello(dec, enc, remote.ProtocolVersion) != nil {
			return
		}
		f, err := ReadCall(dec)
		if err != nil {
			return
		}
		sendAnswers(enc, f.ID, 3, true)
		payload, _ := obs.AppendSpanJSON(nil, obs.SpanData{Name: "serve src:gen", End: time.Millisecond})
		enc.Encode(remote.Frame{Op: remote.OpTrace, ID: f.ID, Trace: payload})
		Wedge(conn)
	}
	addr := NewResponder(t, script)
	c := NewHarnessClient(addr, "src")
	defer c.Close()
	ob := obs.NewObserver()
	c.SetObserver(ob)

	ctx, call := tracedHarnessCtx()
	s, err := c.Call(ctx, "gen", nil)
	if err != nil {
		t.Fatalf("call setup: %v", err)
	}
	vals, err := domain.Collect(s)
	if err != nil || len(vals) != 3 {
		t.Fatalf("vals=%d err=%v, want 3 answers despite the late trace", len(vals), err)
	}
	call.End(0)
	if n := len(call.Snapshot().Children); n != 0 {
		t.Errorf("late trace frame stitched anyway: %d children", n)
	}
	if got := ob.Metrics.Snapshot()["hermes_trace_stitched_total"]; got != 0 {
		t.Errorf("stitched counter = %v, want 0", got)
	}
}

// A peer shipping a trace subtree over the client's own byte cap: the
// subtree is dropped as oversize (counted, tagged) and the call still
// delivers every answer.
func TestScenarioOversizedTraceSubtree(t *testing.T) {
	NoLeakCheck(t)
	script := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if AcceptHello(dec, enc, remote.ProtocolVersion) != nil {
			return
		}
		f, err := ReadCall(dec)
		if err != nil {
			return
		}
		big := obs.SpanData{
			Name: "serve src:gen", End: time.Millisecond,
			Tags: obs.Tags{{K: "padding", V: strings.Repeat("x", 2048)}},
		}
		payload, _ := obs.AppendSpanJSON(nil, big)
		enc.Encode(remote.Frame{Op: remote.OpTrace, ID: f.ID, Trace: payload})
		sendAnswers(enc, f.ID, 3, true)
		Wedge(conn)
	}
	addr := NewResponder(t, script)
	c := NewHarnessClient(addr, "src")
	defer c.Close()
	c.SetMaxForeignSubtreeBytes(256)
	ob := obs.NewObserver()
	c.SetObserver(ob)

	ctx, call := tracedHarnessCtx()
	s, err := c.Call(ctx, "gen", nil)
	if err != nil {
		t.Fatalf("call setup: %v", err)
	}
	vals, err := domain.Collect(s)
	if err != nil || len(vals) != 3 {
		t.Fatalf("vals=%d err=%v, want 3 answers despite the dropped subtree", len(vals), err)
	}
	call.End(0)
	snap := call.Snapshot()
	if len(snap.Children) != 0 {
		t.Error("oversized subtree was stitched")
	}
	if snap.Tag("remote.trace") != "oversize" {
		t.Errorf("remote.trace tag = %q, want oversize", snap.Tag("remote.trace"))
	}
	m := ob.Metrics.Snapshot()
	if m[`hermes_trace_malformed_total{reason="oversize"}`] != 1 {
		t.Errorf("oversize drop not counted: %v", m)
	}
	if m["hermes_trace_stitched_total"] != 0 {
		t.Error("stitched counter moved for a dropped subtree")
	}
}

// Depth limit against the real server: a call arriving above
// -trace-max-depth is served normally — full answers — but no trace
// frame comes back, and the drop is counted. The cycle guard degrades
// tracing, never correctness.
func TestScenarioDepthLimitExceeded(t *testing.T) {
	NoLeakCheck(t)
	ob := obs.NewObserver()
	srv, addr := startServer(t, func(s *remote.Server) {
		s.TraceMaxDepth = 2
		s.SetObserver(ob)
	}, rangeDomain(3, 0))
	_ = srv

	d := DialDriver(t, addr)
	reply := d.Hello(remote.ProtocolVersion)
	if reply.Op != remote.OpHello || reply.Version != remote.ProtocolVersion {
		t.Fatalf("hello reply %+v", reply)
	}
	d.Send(remote.Frame{
		Op: remote.OpCall, ID: 1, Domain: "src", Function: "gen",
		TraceID: "cafe0123cafe0123", Depth: 3,
	})
	answers, sawTrace := 0, false
	for {
		f := d.MustRecv(2 * time.Second)
		switch f.Op {
		case remote.OpTrace:
			sawTrace = true
		case remote.OpAnswers:
			answers += len(f.Values)
			if f.Done {
				goto drained
			}
		case remote.OpError:
			t.Fatalf("server errored: %s", f.Err)
		}
	}
drained:
	if answers != 3 {
		t.Errorf("answers = %d, want 3: the depth guard must not affect serving", answers)
	}
	if sawTrace {
		t.Error("server shipped a trace frame past its depth limit")
	}
	if got := ob.Metrics.Snapshot()["hermes_trace_dropped_depth_total"]; got != 1 {
		t.Errorf("hermes_trace_dropped_depth_total = %v, want 1", got)
	}
}
