package interop

import (
	"encoding/json"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/obs"
	"hermes/internal/remote"
	"hermes/internal/vclock"
)

// The scripted peers below are the only speakers of the retired
// one-connection-per-call protocol left in the tree. They exist to pin the
// refusal: a stale peer is turned away once, typed and counted, never
// served and never silently downgraded.

// A pre-v2 client opens with its request instead of a hello. The server
// must answer exactly one error frame (err + done, the keys such a client
// decodes), release the connection, count the refusal, and never let the
// request reach a source.
func TestScenarioV1ClientRefusedByServer(t *testing.T) {
	NoLeakCheck(t)
	meter := domaintest.Metered(rangeDomain(3, 0))
	ob := obs.NewObserver()
	srv, addr := startServer(t, func(s *remote.Server) { s.SetObserver(ob) }, meter)
	refused := ob.Counter("hermes_remote_refused_total", "reason", "not-hello")
	for i, first := range []string{
		`{"op":"call","domain":"src","function":"gen"}`,
		`{"op":"functions"}`,
	} {
		d := DialDriver(t, addr)
		d.SendRaw(first + "\n")
		f := d.MustRecv(2 * time.Second)
		if f.Err == "" || !f.Done || f.Unavailable || len(f.Values) != 0 || len(f.Functions) != 0 {
			t.Errorf("%s: reply = %+v, want one hard error frame with err and done", first, f)
		}
		if extra, err := d.Recv(2 * time.Second); !errors.Is(err, io.EOF) {
			t.Errorf("%s: after the refusal got (%+v, %v), want the connection closed", first, extra, err)
		}
		waitFor(t, "server to release the refused connection", func() bool {
			return srv.OpenConns() == 0
		})
		if got := refused.Value(); got != int64(i+1) {
			t.Errorf("%s: refusals counted = %d, want %d", first, got, i+1)
		}
	}
	if meter.Total() != 0 {
		t.Errorf("a refused peer reached the source %d times", meter.Total())
	}
	if got := ob.Counter("hermes_remote_calls_total", "proto", "v2").Value(); got != 0 {
		t.Errorf("refused requests counted as %d served calls", got)
	}
}

// A pre-v2 server answers the hello with an op-less unknown-op error. Every
// client entry point must return the typed protocol error — not the
// retryable ErrUnavailable — after dialling exactly once: connection 2k is
// the attempt, connection 2k+1 is a sentinel the test dials itself, so a
// fallback dial would land on the sentinel's script and be reported.
func TestScenarioV1ServerRefusedByClient(t *testing.T) {
	NoLeakCheck(t)
	v1Server := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		var hello remote.Frame
		if dec.Decode(&hello) != nil {
			return
		}
		io.WriteString(conn, `{"err":"unknown op \"hello\"","done":true}`+"\n")
	}
	nextConn := make(chan string, 1)
	sentinel := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		var f remote.Frame
		dec.Decode(&f)
		nextConn <- f.Op
	}
	addr := NewResponder(t, v1Server, sentinel, v1Server, sentinel, v1Server, sentinel, v1Server, sentinel)
	c := NewHarnessClient(addr, "src")
	defer c.Close()
	attempts := []struct {
		name string
		run  func() error
	}{
		{"Call", func() error {
			_, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
			return err
		}},
		{"FunctionsErr", func() error { _, err := c.FunctionsErr(); return err }},
		{"DebugSnapshot", func() error { _, err := c.DebugSnapshot(time.Second); return err }},
		{"DiscoverDomains", func() error { _, err := remote.DiscoverDomains(addr, time.Second); return err }},
	}
	for _, a := range attempts {
		err := a.run()
		if !errors.Is(err, remote.ErrProtocolMismatch) {
			t.Errorf("%s = %v, want ErrProtocolMismatch", a.name, err)
		}
		if errors.Is(err, domain.ErrUnavailable) {
			t.Errorf("%s = %v: a protocol mismatch must not look retryable", a.name, err)
		}
		DialDriver(t, addr).Send(remote.Frame{Op: "sentinel"})
		select {
		case op := <-nextConn:
			if op != "sentinel" {
				t.Errorf("%s dialled a second connection opening with op %q: no fallback is allowed", a.name, op)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: sentinel connection never arrived", a.name)
		}
	}
}

// DiscoverDomains used to read only the functions field of the reply, so a
// server error frame came back as an empty domain list and a nil error.
func TestScenarioDiscoverSurfacesServerError(t *testing.T) {
	NoLeakCheck(t)
	failListing := func(conn net.Conn, dec *json.Decoder, enc *json.Encoder) {
		if AcceptHello(dec, enc, remote.ProtocolVersion) != nil {
			return
		}
		f, err := ReadCall(dec)
		if err != nil {
			return
		}
		enc.Encode(remote.Frame{Op: f.Op, ID: f.ID, Err: "listing exploded", Done: true})
		Wedge(conn)
	}
	names, err := remote.DiscoverDomains(NewResponder(t, failListing), time.Second)
	if err == nil || !strings.Contains(err.Error(), "listing exploded") {
		t.Errorf("DiscoverDomains = (%v, %v), want the server's error", names, err)
	}
	if errors.Is(err, domain.ErrUnavailable) {
		t.Errorf("a server-reported listing error is not an outage: %v", err)
	}
}
