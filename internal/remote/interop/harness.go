// Package interop verifies the remote wire protocol against real TCP
// sockets, the way a conformance suite would: a Driver (a raw-frame client
// simulator) drives the real *remote.Server, and a Responder (a scripted
// server simulator) drives the real *remote.Client. Neither side trusts
// the other's implementation — the scripts speak frames byte-for-byte, so
// they can inject what a correct peer never sends: wedged silences,
// malformed frames, truncated frames, mid-stream connection drops, and
// stale protocol versions.
package interop

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"hermes/internal/remote"
)

// NoLeakCheck snapshots the goroutine count and registers a cleanup that
// fails the test if, after everything else shut down, the count does not
// return near the baseline. Register it before the harness pieces so its
// cleanup runs last.
func NoLeakCheck(t *testing.T) {
	t.Helper()
	base := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		var n int
		for time.Now().Before(deadline) {
			n = runtime.NumGoroutine()
			if n <= base+2 {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("goroutine leak: %d at baseline, %d after cleanup", base, n)
	})
}

// Driver is a raw v2-frame client simulator for driving a real server. It
// performs no negotiation or bookkeeping on its own: tests send exactly
// the frames (or bytes) they mean to.
type Driver struct {
	t    *testing.T
	conn net.Conn
	dec  *json.Decoder
}

// DialDriver connects a driver to addr.
func DialDriver(t *testing.T, addr string) *Driver {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("driver dial %s: %v", addr, err)
	}
	d := &Driver{t: t, conn: conn, dec: json.NewDecoder(conn)}
	t.Cleanup(func() { conn.Close() })
	return d
}

// Send writes one frame.
func (d *Driver) Send(f remote.Frame) {
	d.t.Helper()
	if err := json.NewEncoder(d.conn).Encode(f); err != nil {
		d.t.Fatalf("driver send %+v: %v", f, err)
	}
}

// SendRaw writes bytes verbatim — the tool for malformed and truncated
// frames.
func (d *Driver) SendRaw(s string) {
	d.t.Helper()
	if _, err := io.WriteString(d.conn, s); err != nil {
		d.t.Fatalf("driver send raw %q: %v", s, err)
	}
}

// Recv reads the next frame within the timeout.
func (d *Driver) Recv(timeout time.Duration) (remote.Frame, error) {
	d.conn.SetReadDeadline(time.Now().Add(timeout))
	var f remote.Frame
	err := d.dec.Decode(&f)
	return f, err
}

// MustRecv reads the next frame or fails the test.
func (d *Driver) MustRecv(timeout time.Duration) remote.Frame {
	d.t.Helper()
	f, err := d.Recv(timeout)
	if err != nil {
		d.t.Fatalf("driver recv: %v", err)
	}
	return f
}

// Hello negotiates, offering the given versions, and returns the server's
// reply.
func (d *Driver) Hello(versions ...int) remote.Frame {
	d.t.Helper()
	d.Send(remote.Frame{Op: remote.OpHello, Versions: versions})
	return d.MustRecv(2 * time.Second)
}

// Close drops the connection abruptly.
func (d *Driver) Close() { d.conn.Close() }

// ConnScript plays one scripted connection on a Responder. When the
// script returns the connection closes — mid-script returns ARE the
// mid-stream-drop injection.
type ConnScript func(conn net.Conn, dec *json.Decoder, enc *json.Encoder)

// Responder is a scripted TCP server simulator: connection i plays
// scripts[i]; connections beyond the script list are closed immediately.
type Responder struct {
	l net.Listener
}

// NewResponder starts a responder and returns its address.
func NewResponder(t *testing.T, scripts ...ConnScript) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for i := 0; ; i++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if i >= len(scripts) {
				conn.Close()
				continue
			}
			script := scripts[i]
			go func() {
				defer conn.Close()
				script(conn, json.NewDecoder(conn), json.NewEncoder(conn))
			}()
		}
	}()
	return l.Addr().String()
}

// AcceptHello reads the client hello and answers it with version v.
func AcceptHello(dec *json.Decoder, enc *json.Encoder, v int) error {
	var hello remote.Frame
	if err := dec.Decode(&hello); err != nil {
		return err
	}
	if hello.Op != remote.OpHello {
		return fmt.Errorf("expected hello, got %q", hello.Op)
	}
	return enc.Encode(remote.Frame{Op: remote.OpHello, Version: v})
}

// ReadCall reads frames until a request arrives, skipping the client's
// heartbeats.
func ReadCall(dec *json.Decoder) (remote.Frame, error) {
	for {
		var f remote.Frame
		if err := dec.Decode(&f); err != nil {
			return f, err
		}
		if f.Op == remote.OpHeartbeat {
			continue
		}
		return f, nil
	}
}

// Wedge absorbs everything the peer sends without ever replying, until
// the connection closes — the shape of a wedged server.
func Wedge(conn net.Conn) {
	io.Copy(io.Discard, conn)
}
