package remote

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// tracedCtx returns a wall-clock call context carrying a live call span,
// the shape the engine hands the remote client for a traced query.
func tracedCtx(name string) (*domain.Ctx, *obs.Span) {
	root := obs.NewTracer(nil).StartQuery("?- q.", 0)
	call := root.Child(name, 0)
	ctx := domain.NewCtx(vclock.NewWall())
	ctx.Span = call
	return ctx, call
}

// findSpan walks a snapshot looking for a node whose tags carry k=v.
func findSpan(d obs.SpanData, k, v string) *obs.SpanData {
	if d.Tag(k) == v {
		return &d
	}
	for i := range d.Children {
		if hit := findSpan(d.Children[i], k, v); hit != nil {
			return hit
		}
	}
	return nil
}

// TestFederatedTraceStitching is the single-hop contract: a traced call
// against a CapTrace server comes back with the server's serve subtree
// stitched under the local call span — per-hop node tag, remote actual
// with full cardinality, wire time split out — and the remote actual
// reaches the caller's actuals hook.
func TestFederatedTraceStitching(t *testing.T) {
	_, addr := startServerCfg(t, func(s *Server) { s.NodeName = "node-b" }, echoDomain())
	ob := obs.NewObserver()
	c := NewClient(addr, "echo")
	defer c.Close()
	c.SetObserver(ob)
	var hooked []obs.Cost
	var hookedCalls []domain.Call
	c.SetActualsHook(func(call domain.Call, actual obs.Cost) {
		hookedCalls = append(hookedCalls, call)
		hooked = append(hooked, actual)
	})

	ctx, call := tracedCtx("call echo:gen(5)")
	st, err := c.Call(ctx, "gen", []term.Value{term.Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 5 {
		t.Fatalf("answers = %d, want 5", len(vals))
	}
	call.End(ctx.Clock.Now())

	snap := call.Snapshot()
	if snap.Tag("remote") != addr {
		t.Errorf("remote = %q, want %s", snap.Tag("remote"), addr)
	}
	if snap.Tag("remote.wire_ms") == "" {
		t.Error("remote.wire_ms tag missing: wire time not split from remote compute")
	}
	if len(snap.Children) != 1 {
		t.Fatalf("call span has %d children, want 1 stitched serve subtree:\n%s",
			len(snap.Children), obs.Explain(snap))
	}
	serve := snap.Children[0]
	if serve.Name != "serve echo:gen" {
		t.Errorf("stitched subtree root = %q", serve.Name)
	}
	if serve.Tag("node") != "node-b" {
		t.Errorf("serve span node tag = %q, want node-b", serve.Tag("node"))
	}
	if serve.Actual == nil || serve.Actual.Card != 5 {
		t.Errorf("serve span actual = %+v, want Card=5", serve.Actual)
	}
	if serve.Start < snap.Start || serve.End > snap.End {
		t.Errorf("foreign subtree not rebased inside the call span: serve [%v,%v], call [%v,%v]",
			serve.Start, serve.End, snap.Start, snap.End)
	}

	m := ob.Metrics.Snapshot()
	if m["hermes_trace_propagated_total"] != 1 || m["hermes_trace_stitched_total"] != 1 {
		t.Errorf("propagated=%v stitched=%v, want 1/1",
			m["hermes_trace_propagated_total"], m["hermes_trace_stitched_total"])
	}
	if m["hermes_trace_foreign_subtree_bytes_total"] <= 0 {
		t.Error("foreign subtree bytes not counted")
	}

	if len(hooked) != 1 {
		t.Fatalf("actuals hook fired %d times, want 1", len(hooked))
	}
	if hookedCalls[0].Domain != "echo" || hookedCalls[0].Function != "gen" {
		t.Errorf("hook call = %+v", hookedCalls[0])
	}
	if hooked[0].Card != 5 {
		t.Errorf("hook actual Card = %v, want 5 (the remote-reported cardinality)", hooked[0].Card)
	}
}

// TestFederatedTraceTwoHop chains A → B → C: B mounts C's domain through
// a remote client of its own, so the subtree B ships to A must already
// contain C's serve span nested inside. One trace, three nodes.
func TestFederatedTraceTwoHop(t *testing.T) {
	_, addrC := startServerCfg(t, func(s *Server) { s.NodeName = "node-c" }, echoDomain())
	mountC := NewClient(addrC, "echo")
	defer mountC.Close()
	_, addrB := startServerCfg(t, func(s *Server) { s.NodeName = "node-b" }, mountC)

	c := NewClient(addrB, "echo")
	defer c.Close()
	c.SetObserver(obs.NewObserver())

	ctx, call := tracedCtx("call echo:gen(3)")
	st, err := c.Call(ctx, "gen", []term.Value{term.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 3 {
		t.Fatalf("answers = %d, want 3", len(vals))
	}
	call.End(ctx.Clock.Now())

	snap := call.Snapshot()
	serveB := findSpan(snap, "node", "node-b")
	if serveB == nil {
		t.Fatalf("no node-b serve span stitched:\n%s", obs.Explain(snap))
	}
	serveC := findSpan(*serveB, "node", "node-c")
	if serveC == nil {
		t.Fatalf("node-c's serve span not nested under node-b's:\n%s", obs.Explain(snap))
	}
	if serveC.Actual == nil || serveC.Actual.Card != 3 {
		t.Errorf("innermost hop actual = %+v, want Card=3", serveC.Actual)
	}
	// B's serve span carries the B→C hop's client-side tags: the middle
	// hop is diagnosable from the stitched tree alone.
	if serveB.Tag("remote") != addrC {
		t.Errorf("node-b serve span remote = %q, want %s", serveB.Tag("remote"), addrC)
	}
}

// deepServeDomain builds a wide span subtree under the serving context, so
// a tight server-side byte budget must prune and tag the shipped tree.
type deepServeDomain struct{}

func (deepServeDomain) Name() string { return "deep" }
func (deepServeDomain) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "go", Arity: 0}}
}
func (deepServeDomain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	for i := 0; i < 64; i++ {
		ch := ctx.Span.Child(fmt.Sprintf("step %d", i), ctx.Clock.Now())
		ch.SetTag("detail", strings.Repeat("x", 40))
		ch.End(ctx.Clock.Now())
	}
	return domain.NewSliceStream([]term.Value{term.Int(1)}), nil
}

// TestFederatedTraceTruncation: a serve subtree over the server's byte
// budget arrives pruned, tagged truncated=1, and still stitches — the
// budget bounds trace frames, it never drops tracing entirely.
func TestFederatedTraceTruncation(t *testing.T) {
	ob := obs.NewObserver()
	srv, addr := startServerCfg(t, func(s *Server) {
		s.NodeName = "node-b"
		s.TraceMaxSubtreeBytes = 512
		s.SetObserver(ob)
	}, deepServeDomain{})
	_ = srv

	c := NewClient(addr, "deep")
	defer c.Close()
	c.SetObserver(obs.NewObserver())
	ctx, call := tracedCtx("call deep:go()")
	st, err := c.Call(ctx, "go", nil)
	if err != nil {
		t.Fatal(err)
	}
	if vals, err := domain.Collect(st); err != nil || len(vals) != 1 {
		t.Fatalf("vals=%d err=%v", len(vals), err)
	}
	call.End(ctx.Clock.Now())

	snap := call.Snapshot()
	if len(snap.Children) != 1 {
		t.Fatalf("no stitched subtree after truncation:\n%s", obs.Explain(snap))
	}
	serve := snap.Children[0]
	if serve.Tag(obs.TruncatedTag) != "1" {
		t.Errorf("pruned subtree not tagged %s=1: %v", obs.TruncatedTag, serve.Tags)
	}
	if len(serve.Children) == 64 {
		t.Error("subtree arrived unpruned despite the 512-byte budget")
	}
	if ob.Metrics.Snapshot()["hermes_trace_truncated_total"] != 1 {
		t.Error("server did not count the truncation")
	}
}

// TestDebugSnapshot covers the rollup op: a configured node answers with
// its payload, and an unconfigured node answers with a typed error
// (degraded, not fatal).
func TestDebugSnapshot(t *testing.T) {
	payload := []byte(`{"node":"node-b","metrics":{}}`)
	_, addr := startServerCfg(t, func(s *Server) {
		s.SetDebugInfo(func() ([]byte, error) { return payload, nil })
	}, echoDomain())
	c := NewClient(addr, "echo")
	defer c.Close()
	got, err := c.DebugSnapshot(2 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("payload = %s", got)
	}

	_, bare := startServer(t, echoDomain())
	cb := NewClient(bare, "echo")
	defer cb.Close()
	if _, err := cb.DebugSnapshot(2 * time.Second); err == nil ||
		!strings.Contains(err.Error(), "not configured") {
		t.Errorf("unconfigured node: err = %v", err)
	}
}

// idDomain records the trace ID of every call it serves.
type idDomain struct {
	mu  sync.Mutex
	ids []string
}

func (*idDomain) Name() string { return "ids" }
func (*idDomain) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "get", Arity: 0}}
}
func (d *idDomain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	d.mu.Lock()
	d.ids = append(d.ids, ctx.Span.TraceID())
	d.mu.Unlock()
	return domain.NewSliceStream([]term.Value{term.Int(1)}), nil
}

// TestTraceIDOncePerQuery: the remote calls of one query carry one trace
// ID, minted at the origin by the first of them and forwarded by every
// hop; another query carries another.
func TestTraceIDOncePerQuery(t *testing.T) {
	ids := &idDomain{}
	_, addrC := startServerCfg(t, func(s *Server) { s.NodeName = "node-c" }, ids)
	mountC := NewClient(addrC, "ids")
	defer mountC.Close()
	_, addrB := startServerCfg(t, func(s *Server) { s.NodeName = "node-b" }, mountC)
	c := NewClient(addrB, "ids")
	defer c.Close()

	tracer := obs.NewTracer(nil)
	query := func(calls int) string {
		root := tracer.StartQuery("?- q.", 0)
		for i := 0; i < calls; i++ {
			ctx := domain.NewCtx(vclock.NewWall())
			ctx.Span = root.Child("call ids:get()", 0)
			st, err := c.Call(ctx, "get", nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := domain.Collect(st); err != nil {
				t.Fatal(err)
			}
		}
		return root.TraceID()
	}
	first, second := query(2), query(1)
	ids.mu.Lock()
	defer ids.mu.Unlock()
	if len(ids.ids) != 3 {
		t.Fatalf("node-c served %d calls, want 3", len(ids.ids))
	}
	if len(first) != 16 || ids.ids[0] != first || ids.ids[1] != first {
		t.Errorf("one query's calls reached node-c with trace IDs %q and %q, want its own %q", ids.ids[0], ids.ids[1], first)
	}
	if second == first || ids.ids[2] != second {
		t.Errorf("the second query's call carries %q, want its own %q (the first query's is %q)", ids.ids[2], second, first)
	}
}

// randomSpan grows under s a span tree whose names and tags hold what the
// JSON encoders must escape: HTML characters, U+2028/U+2029, control
// characters, quotes and invalid UTF-8.
func randomSpan(rng *rand.Rand, s *obs.Span, depth int) {
	pieces := []string{"a", "serve ", "<", ">", "&", "\u2028", "\u2029", "\xff", "\xe2\x80", "\"", "\\", "\n", "\x00", "é", "😀"}
	text := func() string {
		var b strings.Builder
		for n := rng.Intn(6); n >= 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	for n := rng.Intn(4); n > 0; n-- {
		s.SetTag(text(), text())
	}
	if rng.Intn(2) == 0 {
		s.SetActual(obs.Cost{TFirst: time.Duration(rng.Int63n(1e6)), TAll: time.Duration(rng.Int63n(1e9)), Card: rng.NormFloat64() * 1e3})
	}
	for n := rng.Intn(4); depth > 0 && n > 0; n-- {
		c := s.Child(text(), time.Duration(rng.Int63n(1e9)))
		randomSpan(rng, c, depth-1)
		c.End(2e9)
	}
}

// TestTrustedTraceFrameMatchesAppendRaw: a trace frame whose subtree obs
// encodes straight into the frame is byte for byte the frame the checked
// path writes from the same subtree's payload, with a byte budget or
// without one.
func TestTrustedTraceFrameMatchesAppendRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		root := obs.NewSpan("serve <&>\u2028\xff", 0)
		randomSpan(rng, root, 3)
		root.End(3e9)
		d := root.Snapshot()
		budget := 0
		if i%2 == 1 {
			budget = 64 + rng.Intn(512)
		}
		payload, _, ok := obs.AppendSpanJSONWithin(nil, d, budget)
		b := frameBody{span: &d, spanMax: budget}
		trusted, err := appendFrameBody([]byte("prefix"), &Frame{Op: OpTrace, ID: uint64(i + 1)}, &b)
		if !ok {
			if !errors.Is(err, errNoTrace) {
				t.Fatalf("tree %d: no encoding within %d bytes, but the trusted path says %v", i, budget, err)
			}
			continue
		}
		checked, cerr := appendFrame([]byte("prefix"), &Frame{Op: OpTrace, ID: uint64(i + 1), Trace: payload}, nil, nil)
		if err != nil || cerr != nil {
			t.Fatalf("tree %d: trusted err %v, checked err %v", i, err, cerr)
		}
		if !bytes.Equal(trusted, checked) {
			t.Fatalf("tree %d:\ntrusted %s\nchecked %s", i, trusted, checked)
		}
	}
}
