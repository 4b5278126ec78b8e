package remote

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// TestConcurrentClients hammers one server with parallel calls from many
// goroutines; every call must return its own correct answer set.
func TestConcurrentClients(t *testing.T) {
	_, addr := startServer(t, echoDomain())
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := NewClient(addr, "echo")
			for i := 0; i < 4; i++ {
				n := int64(1 + (g+i)%7)
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
					errs <- fmt.Errorf("goroutine %d: got %d answers, want %d", g, len(vals), n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestLargePayload streams a result set far larger than one chunk.
func TestLargePayload(t *testing.T) {
	_, addr := startServerCfg(t, func(s *Server) { s.chunkSize = 16 }, echoDomain())
	c := NewClient(addr, "echo")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(5000)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 5000 {
		t.Fatalf("vals = %d", len(vals))
	}
	// Spot check ordering integrity.
	last := vals[4999].(term.Record)
	i, _ := last.Get("i")
	if !term.Equal(i, term.Int(4999)) {
		t.Errorf("last value = %v", last)
	}
}

// TestServerCloseDuringStream: closing the server mid-stream surfaces an
// error on the client rather than hanging.
func TestServerCloseDuringStream(t *testing.T) {
	srv, addr := startServerCfg(t, func(s *Server) { s.chunkSize = 1 }, echoDomain())
	c := NewClient(addr, "echo")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(100000)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); !ok || err != nil {
		t.Fatalf("first answer: %v %v", ok, err)
	}
	srv.Close()
	// Eventually the stream errors or ends; it must not deliver forever.
	seen := 1
	for {
		_, ok, err := s.Next()
		if err != nil || !ok {
			break
		}
		seen++
		if seen > 200000 {
			t.Fatal("stream never terminated after server close")
		}
	}
}

// Regression (nested calls on one mount deadlock): the pipelined engine
// keeps an outer stream open while inner literals call the same mount. The
// session reader used to block on the outer call's full 32-frame channel,
// so once its unread remainder passed 32 frames the inner call's frames
// were never routed, and heartbeats kept the stalled session alive. A call
// slot now buffers what its consumer has not read, never the reader.
func TestNestedCallOnOneMountDoesNotDeadlock(t *testing.T) {
	meter := domaintest.Metered(echoDomain())
	_, addr := startServer(t, meter)
	c := NewClient(addr, "echo")
	defer c.Close()
	outer, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(5000)})
	if err != nil {
		t.Fatal(err)
	}
	defer outer.Close()
	if _, ok, err := outer.Next(); !ok || err != nil {
		t.Fatalf("outer first answer: %v %v", ok, err)
	}
	// The server has written all 79 outer frames before the inner call
	// starts, so they reach the session reader ahead of the inner frames.
	waitFor(t, "the server to finish the outer call", func() bool { return meter.Current() == 0 })
	inner := make(chan error, 1)
	go func() {
		s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(3)})
		if err == nil {
			var vals []term.Value
			if vals, err = domain.Collect(s); err == nil && len(vals) != 3 {
				err = fmt.Errorf("inner call: %d answers, want 3", len(vals))
			}
		}
		inner <- err
	}()
	select {
	case err := <-inner:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("inner call hung behind the outer call's unread answers on the same session")
	}
	rest, err := domain.Collect(outer)
	if err != nil || len(rest) != 4999 {
		t.Fatalf("outer remainder: %d answers, %v; want 4999", len(rest), err)
	}
}
