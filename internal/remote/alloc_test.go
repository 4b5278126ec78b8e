package remote

import (
	"runtime"
	"testing"

	"hermes/internal/domain"
	"hermes/internal/obs"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// perCall runs call 100 times, for the session, its buffers and the
// server's connection, then measures 1000 more: the bytes and allocations
// of one call, client and server together.
func perCall(call func()) (bytesPer, allocsPer float64) {
	for i := 0; i < 100; i++ {
		call()
	}
	const n = 1000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		call()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / n, float64(after.Mallocs-before.Mallocs) / n
}

// TestRemoteCallAllocsPerCall gates what one loopback call of a few answers
// allocates, client and server together, with no timing threshold. The
// arguments are encoded into the frame writer's buffer, the server's
// answer list is recycled, each frame's values and tuples are carved from
// one allocation, and a call is one record on each end: the client's
// stream, which holds its routing slot, and the server's serverCall, which
// holds its context. The parent design preallocated a 32-frame channel
// (9.2 KiB) and a 64-value chunk (6 KiB) per call before anything arrived;
// before the records it was 3 520 B and 58 allocations.
func TestRemoteCallAllocsPerCall(t *testing.T) {
	_, addr := startServer(t, echoDomain())
	c := NewClient(addr, "echo")
	defer c.Close()
	args := []term.Value{term.Int(4)}
	bytesPer, allocsPer := perCall(func() {
		s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", args)
		if err != nil {
			t.Fatal(err)
		}
		if vals, err := domain.Collect(s); err != nil || len(vals) != 4 {
			t.Fatalf("call = %d answers, %v", len(vals), err)
		}
	})
	t.Logf("per call: %.0f B, %.1f allocs", bytesPer, allocsPer)
	// Measured 2 170 B and 45 allocs (2 520 B under -race; go1.24,
	// linux/amd64); the bounds allow 25 % for runtime and scheduler noise.
	if bytesPer > 2750 {
		t.Errorf("a loopback call allocates %.0f B, want <= 2750", bytesPer)
	}
	if allocsPer > 58 {
		t.Errorf("a loopback call allocates %.1f times, want <= 58", allocsPer)
	}
}

// TestRemoteTracedCallAllocsPerCall gates the same call traced: a call
// span under a query root whose trace ID is already minted, a serve span
// on the server whose subtree is encoded straight into the trace frame,
// and the subtree decoded and stitched under the call span.
func TestRemoteTracedCallAllocsPerCall(t *testing.T) {
	_, addr := startServerCfg(t, func(s *Server) { s.NodeName = "node-b" }, echoDomain())
	c := NewClient(addr, "echo")
	defer c.Close()
	c.SetObserver(obs.NewObserver())
	args := []term.Value{term.Int(4)}
	root := obs.NewSpan("?- q.", 0)
	root.TraceID()
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	bytesPer, allocsPer := perCall(func() {
		ctx.Span = root.Child("call echo:gen(4)", 0)
		s, err := c.Call(ctx, "gen", args)
		if err != nil {
			t.Fatal(err)
		}
		if vals, err := domain.Collect(s); err != nil || len(vals) != 4 {
			t.Fatalf("call = %d answers, %v", len(vals), err)
		}
		ctx.Span.End(0)
	})
	if d := ctx.Span.Snapshot(); len(d.Children) != 1 || d.Children[0].Tag("node") != "node-b" {
		t.Fatalf("the serve subtree was not stitched:\n%s", obs.Explain(d))
	}
	t.Logf("per call: %.0f B, %.1f allocs", bytesPer, allocsPer)
	// Measured 2 970 B and 52.8 allocs (3 610 B and 58.8 under -race;
	// go1.24, linux/amd64); the bounds allow 25 % for runtime and
	// scheduler noise, and the byte bound the -race figure. The server
	// encodes its serve subtree through Span.WithSnapshot: through
	// Snapshot, which keeps a build of its own in the served tree, the
	// same call measured 2.9 allocs and 210 B more, and the benchmark's
	// two_hop 137.0 KiB and 1 899 allocations per query against 132.6 and
	// 1 812. Before the trace was kept as flat records, the call was
	// 3 240 B and 59 allocs; when each call minted its own trace ID,
	// encoded the subtree into a buffer of its own and the frame
	// re-validated and copied it, 4 800 B and 82 allocs.
	if bytesPer > 4050 {
		t.Errorf("a traced loopback call allocates %.0f B, want <= 4050", bytesPer)
	}
	if allocsPer > 67 {
		t.Errorf("a traced loopback call allocates %.1f times, want <= 67", allocsPer)
	}
}
