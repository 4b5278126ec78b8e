package remote

import (
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/obs"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// roundTrip sends vs through the codec as an answers frame's values and
// reads the line back.
func roundTrip(t *testing.T, vs ...term.Value) frameIn {
	t.Helper()
	list, err := appendValues(nil, vs)
	if err != nil {
		t.Fatalf("encode %v: %v", vs, err)
	}
	line, err := appendFrameBody(nil, &Frame{Op: OpAnswers, ID: 1}, &frameBody{values: list})
	if err != nil {
		t.Fatal(err)
	}
	var in frameIn
	if err := decodeFrame(new(term.JSONReader), line, &in); err != nil {
		t.Fatalf("decode %s: %v", line, err)
	}
	return in
}

func TestValueCodecRoundTrip(t *testing.T) {
	vals := []term.Value{
		term.Str("hello"),
		term.Str(""),
		term.Int(0),
		term.Int(-9007199254740993), // beyond float64 exactness
		term.Float(2.5),
		term.Bool(true),
		term.Bool(false),
		term.Tuple{term.Int(1), term.Str("a")},
		term.Tuple{},
		term.NewRecord(
			term.Field{Name: "name", Val: term.Str("x")},
			term.Field{Name: "pos", Val: term.Tuple{term.Float(1), term.Float(2)}},
		),
	}
	got := roundTrip(t, vals...)
	if got.badValue != nil || len(got.values) != len(vals) {
		t.Fatalf("decoded %v, %v", got.values, got.badValue)
	}
	for i, v := range vals {
		if !term.Equal(v, got.values[i]) {
			t.Errorf("round trip %v -> %v", v, got.values[i])
		}
	}
}

func TestValueCodecIntExactProperty(t *testing.T) {
	f := func(n int64) bool {
		got := roundTrip(t, term.Int(n))
		return got.badValue == nil && len(got.values) == 1 && term.Equal(got.values[0], term.Int(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A well-formed frame carrying a form that names no value fails the call
// (badValue), not the line: the session survives it.
func TestDecodeErrors(t *testing.T) {
	for _, v := range []string{`{"t":"zz"}`, `{"t":"i","s":"notanint"}`} {
		var in frameIn
		err := decodeFrame(new(term.JSONReader), []byte(`{"op":"answers","id":1,"values":[`+v+`]}`+"\n"), &in)
		if err != nil || in.badValue == nil {
			t.Errorf("%s: err %v, badValue %v; want a bad value in a good frame", v, err, in.badValue)
		}
	}
}

// TestDecodeRepeatedKey: a frame, a listing's function spec or a value
// inside a frame that repeats one of its keys fails the line, where
// encoding/json keeps the last value; the same line with the key once
// decodes.
func TestDecodeRepeatedKey(t *testing.T) {
	const spec = `{"op":"functions","id":2,"done":true,"functions":{"a":[%s]}}`
	for _, c := range []struct{ name, once, twice string }{
		{"op", `{"op":"call","id":1}`, `{"op":"call","op":"call","id":1}`},
		{"id", `{"op":"call","id":1}`, `{"op":"call","id":1,"id":1}`},
		{"spec name", fmt.Sprintf(spec, `{"name":"gen","arity":1}`), fmt.Sprintf(spec, `{"name":"gen","name":"gen","arity":1}`)},
		{"spec arity", fmt.Sprintf(spec, `{"name":"gen","arity":1}`), fmt.Sprintf(spec, `{"name":"gen","arity":1,"arity":1}`)},
		{"spec doc", fmt.Sprintf(spec, `{"name":"gen","doc":"d"}`), fmt.Sprintf(spec, `{"name":"gen","doc":"d","doc":"d"}`)},
		{"value tag", `{"op":"call","id":1,"args":[{"t":"s","s":"x"}]}`, `{"op":"call","id":1,"args":[{"t":"s","t":"s","s":"x"}]}`},
	} {
		var in frameIn
		if err := decodeFrame(new(term.JSONReader), []byte(c.once), &in); err != nil || in.badValue != nil {
			t.Errorf("%s once: %s: %v %v", c.name, c.once, err, in.badValue)
		}
		if err := decodeFrame(new(term.JSONReader), []byte(c.twice), &in); err == nil || !strings.Contains(err.Error(), "repeats key") {
			t.Errorf("%s twice: %s: err %v, want a repeated key", c.name, c.twice, err)
		}
	}
}

// startServer spins a server over the given domains on an ephemeral port.
func startServer(t *testing.T, doms ...domain.Domain) (*Server, string) {
	return startServerCfg(t, nil, doms...)
}

// startServerCfg is startServer with a configuration hook that runs before
// the server starts serving (mutating Server fields afterwards races with
// the handler goroutines).
func startServerCfg(t *testing.T, cfg func(*Server), doms ...domain.Domain) (*Server, string) {
	t.Helper()
	reg := domain.NewRegistry()
	for _, d := range doms {
		reg.Register(d)
	}
	srv := NewServer(reg)
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

func echoDomain() *domaintest.Domain {
	d := domaintest.New("echo")
	d.Define("gen", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			n := int64(args[0].(term.Int))
			out := make([]term.Value, n)
			for i := range out {
				out[i] = term.NewRecord(
					term.Field{Name: "i", Val: term.Int(int64(i))},
					term.Field{Name: "tag", Val: term.Str("remote")},
				)
			}
			return out, nil
		}})
	d.Define("fail", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			return nil, errors.New("source exploded")
		}})
	d.Define("down", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			return nil, domain.ErrUnavailable
		}})
	return d
}

// TestNegativeZeroKeepsItsSign: a -0 argument reaches the source as -0,
// and a -0 answer reaches the caller as -0. Written in json.Marshal's
// omitempty form, both would arrive as +0, which Equal and Key tell apart.
func TestNegativeZeroKeepsItsSign(t *testing.T) {
	d := domaintest.New("z")
	d.Define("echo", domaintest.Func{Arity: 1,
		Fn: func(args []term.Value) ([]term.Value, error) {
			f, ok := args[0].(term.Float)
			return []term.Value{term.Bool(ok && math.Signbit(float64(f))), args[0]}, nil
		}})
	_, addr := startServer(t, d)
	c := NewClient(addr, "z")
	defer c.Close()
	negZero := term.Float(math.Copysign(0, -1))
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "echo", []term.Value{negZero})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(s)
	if err != nil || len(vals) != 2 {
		t.Fatalf("answers %v, %v", vals, err)
	}
	if !term.Equal(vals[0], term.Bool(true)) {
		t.Error("the source saw +0 for a -0 argument")
	}
	if !term.Equal(vals[1], negZero) {
		t.Errorf("a -0 answer arrived as %v", vals[1])
	}
}

func TestEndToEndCall(t *testing.T) {
	_, addr := startServer(t, echoDomain())
	c := NewClient(addr, "echo")
	o := obs.NewObserver()
	c.SetObserver(o)
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	s, err := c.Call(ctx, "gen", []term.Value{term.Int(5)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 5 {
		t.Fatalf("vals = %d", len(vals))
	}
	rec := vals[3].(term.Record)
	i, _ := rec.Get("i")
	if !term.Equal(i, term.Int(3)) {
		t.Errorf("vals[3] = %v", rec)
	}
	for outcome, want := range map[string]int64{"ok": 1, "error": 0} {
		if got := o.Counter("hermes_remote_dials_total", "domain", "echo", "outcome", outcome).Value(); got != want {
			t.Errorf("hermes_remote_dials_total{outcome=%q} = %d, want %d", outcome, got, want)
		}
	}
}

func TestChunkedStreaming(t *testing.T) {
	_, addr := startServerCfg(t, func(s *Server) { s.chunkSize = 3 }, echoDomain()) // force multiple frames for 10 answers
	c := NewClient(addr, "echo")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(10)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 10 {
		t.Errorf("vals = %d", len(vals))
	}
}

func TestRemoteErrorPropagates(t *testing.T) {
	_, addr := startServer(t, echoDomain())
	c := NewClient(addr, "echo")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "fail", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := domain.Collect(s); err == nil {
		t.Error("source error should propagate")
	}
}

func TestRemoteUnavailableIsTyped(t *testing.T) {
	_, addr := startServer(t, echoDomain())
	c := NewClient(addr, "echo")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "down", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = domain.Collect(s)
	if !errors.Is(err, domain.ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable", err)
	}
}

func TestDialFailureIsUnavailable(t *testing.T) {
	c := NewClient("127.0.0.1:1", "echo") // nothing listens on port 1
	c.SetDialTimeout(200 * time.Millisecond)
	o := obs.NewObserver()
	c.SetObserver(o)
	_, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(1)})
	if !errors.Is(err, domain.ErrUnavailable) {
		t.Errorf("err = %v, want ErrUnavailable", err)
	}
	for outcome, want := range map[string]int64{"ok": 0, "error": 1} {
		if got := o.Counter("hermes_remote_dials_total", "domain", "echo", "outcome", outcome).Value(); got != want {
			t.Errorf("hermes_remote_dials_total{outcome=%q} = %d, want %d", outcome, got, want)
		}
	}
}

func TestFunctionsListing(t *testing.T) {
	_, addr := startServer(t, echoDomain())
	c := NewClient(addr, "echo")
	specs := c.Functions()
	if len(specs) != 3 {
		t.Fatalf("specs = %v", specs)
	}
	// Cached on second use.
	if len(c.Functions()) != 3 {
		t.Error("cached listing lost")
	}
	// Unknown domain gives empty listing.
	c2 := NewClient(addr, "nosuch")
	if len(c2.Functions()) != 0 {
		t.Error("unknown domain should list no functions")
	}
}

// Regression: Functions() used to swallow dial failures and return an
// empty listing, which made the registry's validation misclassify an
// unreachable server as "unknown function" — a permanent, non-retryable
// verdict for a transient outage. FunctionsErr must surface the typed
// ErrUnavailable, nothing may be cached on failure, and a recovered
// server must serve the listing on the next probe.
func TestFunctionsUnreachableSurfacesUnavailable(t *testing.T) {
	c := NewClient("127.0.0.1:1", "echo") // nothing listens on port 1
	c.SetDialTimeout(200 * time.Millisecond)
	specs, err := c.FunctionsErr()
	if !errors.Is(err, domain.ErrUnavailable) {
		t.Fatalf("FunctionsErr = (%v, %v), want ErrUnavailable", specs, err)
	}
	if !domain.IsRetryable(err) {
		t.Errorf("listing failure should be retryable, got %v", err)
	}
	if specs != nil {
		t.Errorf("failed listing returned specs %v, want nil", specs)
	}

	// The registry must not translate the outage into ErrUnknownFunction.
	reg := domain.NewRegistry()
	reg.Register(c)
	call := domain.Call{Domain: "echo", Function: "gen", Args: []term.Value{term.Int(1)}}
	err = reg.CheckCall(call)
	if !errors.Is(err, domain.ErrUnavailable) {
		t.Errorf("CheckCall = %v, want ErrUnavailable", err)
	}
	if errors.Is(err, domain.ErrUnknownFunction) {
		t.Errorf("CheckCall misreported outage as unknown function: %v", err)
	}
	if ok, err := reg.HasFunction("echo", "gen", 1); ok || !errors.Is(err, domain.ErrUnavailable) {
		t.Errorf("HasFunction = (%v, %v): it must not confirm a function it could not list, and must say why", ok, err)
	}

	// Nothing was cached, so once the server is up the same client works.
	_, addr := startServer(t, echoDomain())
	c.addr = addr
	if err := reg.CheckCall(call); err != nil {
		t.Errorf("CheckCall after recovery: %v", err)
	}
	if len(c.Functions()) != 3 {
		t.Errorf("recovered listing = %v", c.Functions())
	}
}

// TestServeAfterCloseReturns: a server closed before Serve has started
// closes the listener Serve is handed and returns, rather than accepting on
// it for ever.
func TestServeAfterCloseReturns(t *testing.T) {
	srv := NewServer(domain.NewRegistry())
	srv.Close()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Serve after Close = %v, want net.ErrClosed", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("listener still open after Serve returned: Accept = %v", err)
	}
}

func TestUnknownRemoteDomainErrors(t *testing.T) {
	_, addr := startServer(t, echoDomain())
	c := NewClient(addr, "nosuch")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(1)})
	if err != nil {
		return // dial-level error acceptable
	}
	if _, err := domain.Collect(s); err == nil {
		t.Error("unknown domain should error")
	}
}

func TestEarlyCloseAbortsServer(t *testing.T) {
	_, addr := startServerCfg(t, func(s *Server) { s.chunkSize = 1 }, echoDomain())
	c := NewClient(addr, "echo")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(10000)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Next(); !ok || err != nil {
		t.Fatalf("first answer: %v %v", ok, err)
	}
	s.Close()
	// Server notices the closed connection on its next write and stops; we
	// only verify the client side is clean and the server stays healthy for
	// the next call.
	s2, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", []term.Value{term.Int(2)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(s2)
	if err != nil || len(vals) != 2 {
		t.Errorf("follow-up call = %v, %v", vals, err)
	}
}

func TestClientAsRegistryDomain(t *testing.T) {
	// The client composes with everything that consumes domain.Domain.
	_, addr := startServer(t, echoDomain())
	reg := domain.NewRegistry()
	reg.Register(NewClient(addr, "echo"))
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	s, err := reg.Call(ctx, domain.Call{Domain: "echo", Function: "gen", Args: []term.Value{term.Int(3)}})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(s)
	if err != nil || len(vals) != 3 {
		t.Errorf("vals = %v, %v", vals, err)
	}
}

// Regression (an answer the wire cannot encode hung the caller): sources
// can produce NaN and ±Inf (flat files and CSV parse them), which JSON
// cannot carry. The failed answers frame used to be logged and counted
// server-side while the client waited forever; now the value's own
// encoding fails and the server sends an error frame naming it. Retrying
// would hit the same value, so the error is not ErrUnavailable.
func TestUnencodableAnswerFailsTheCall(t *testing.T) {
	d := domaintest.New("num")
	d.Define("gen", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(1), term.Float(math.NaN())}, nil
		}})
	ob := obs.NewObserver()
	_, addr := startServerCfg(t, func(s *Server) { s.SetObserver(ob) }, d)
	c := NewClient(addr, "num")
	defer c.Close()
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "gen", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := domain.Collect(s)
		done <- err
	}()
	select {
	case err = <-done:
	case <-time.After(3 * time.Second):
		t.Fatal("call with a NaN answer never returned")
	}
	if err == nil || !strings.Contains(err.Error(), "NaN") {
		t.Fatalf("err = %v, want an error naming the NaN answer", err)
	}
	if errors.Is(err, domain.ErrUnavailable) {
		t.Errorf("err = %v: a value the wire cannot carry is not an outage", err)
	}
	if n := ob.Counter("hermes_remote_send_errors_total", "frame", "answers").Value(); n != 0 {
		t.Errorf("send_errors_total{frame=answers} = %d, want 0: the error frame went out", n)
	}
}
