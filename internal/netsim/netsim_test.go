package netsim

import (
	"errors"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/faultinject"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

func mkDomain() *domaintest.Domain {
	d := domaintest.New("src")
	d.Define("f", domaintest.Func{Arity: 1, PerCall: 10 * time.Millisecond,
		Fn: func(args []term.Value) ([]term.Value, error) {
			return []term.Value{term.Str("aaaa"), term.Str("bbbb")}, nil
		}})
	return d
}

func runCall(t *testing.T, h *Host, at time.Duration) (time.Duration, []term.Value) {
	t.Helper()
	ctx := domain.NewCtx(vclock.NewVirtual(at))
	start := ctx.Clock.Now()
	s, err := h.Call(ctx, "f", []term.Value{term.Int(1)})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	return ctx.Clock.Now() - start, vals
}

func TestHostChargesNetworkCost(t *testing.T) {
	p := Profile{Name: "t", Connect: 100 * time.Millisecond, RTT: 50 * time.Millisecond,
		PerTuple: 10 * time.Millisecond, BytesPerSec: 400}
	h := Wrap(mkDomain(), p)
	elapsed, vals := runCall(t, h, 0)
	if len(vals) != 2 {
		t.Fatalf("vals = %v", vals)
	}
	// connect+rtt 150ms + compute 10ms + 2 × (10ms + 4bytes/400Bps=10ms).
	want := 150*time.Millisecond + 10*time.Millisecond + 2*(10*time.Millisecond+10*time.Millisecond)
	if elapsed != want {
		t.Errorf("elapsed = %v, want %v", elapsed, want)
	}
	// Persistent connection: a call issued once it is up skips the Connect
	// charge.
	elapsed2, _ := runCall(t, h, want)
	if elapsed2 != want-100*time.Millisecond {
		t.Errorf("warm call = %v, want %v", elapsed2, want-100*time.Millisecond)
	}
	// ResetConnection cools it again.
	h.ResetConnection()
	elapsed3, _ := runCall(t, h, 0)
	if elapsed3 != want {
		t.Errorf("after reset = %v, want %v", elapsed3, want)
	}
}

// TestColdConnectionChargedByVirtualTime: two calls issued at the same
// virtual time on a cold host both wait for the connection, whichever
// reaches the host first; a call issued halfway through the setup waits
// for the rest of it.
func TestColdConnectionChargedByVirtualTime(t *testing.T) {
	p := Profile{Name: "t", Connect: 100 * time.Millisecond, RTT: 50 * time.Millisecond}
	h := Wrap(mkDomain(), p)
	compute := 10 * time.Millisecond
	for i := 0; i < 2; i++ {
		if got, _ := runCall(t, h, time.Second); got != p.Connect+p.RTT+compute {
			t.Errorf("call %d at the same virtual time took %v, want Connect+RTT+compute %v", i, got, p.Connect+p.RTT+compute)
		}
	}
	if got, _ := runCall(t, h, time.Second+40*time.Millisecond); got != 60*time.Millisecond+p.RTT+compute {
		t.Errorf("call during setup took %v, want the remaining 60ms + RTT + compute", got)
	}
}

func TestJitterDeterministicPerCall(t *testing.T) {
	p := USAEast
	h := Wrap(mkDomain(), p)
	e1, _ := runCall(t, h, 0)
	h.ResetConnection()
	e2, _ := runCall(t, h, 0)
	if e1 != e2 {
		t.Errorf("same call, different times: %v vs %v", e1, e2)
	}
	// Different seeds change the jitter.
	h2 := Wrap(mkDomain(), p, WithSeed(99))
	e3, _ := runCall(t, h2, 0)
	if e3 == e1 {
		t.Log("seeds happened to collide; acceptable but unlikely")
	}
}

func TestProfilesOrdering(t *testing.T) {
	local := Wrap(mkDomain(), Local)
	usa := Wrap(mkDomain(), USAEast)
	italy := Wrap(mkDomain(), Italy)
	eLocal, _ := runCall(t, local, 0)
	eUSA, _ := runCall(t, usa, 0)
	eItaly, _ := runCall(t, italy, 0)
	if !(eLocal < eUSA && eUSA < eItaly) {
		t.Errorf("profile ordering violated: local=%v usa=%v italy=%v", eLocal, eUSA, eItaly)
	}
	// Magnitude regime of the paper: USA ≈ 1-3s, Italy ≈ 4-50s for small
	// queries.
	if eUSA < 500*time.Millisecond || eUSA > 4*time.Second {
		t.Errorf("USA call = %v, out of the paper's regime", eUSA)
	}
	if eItaly < 3*time.Second || eItaly > 60*time.Second {
		t.Errorf("Italy call = %v, out of the paper's regime", eItaly)
	}
}

// TestOutageWindow: a host behind a fault injector's outage window, as
// the experiments compose them, fails with ErrUnavailable inside the
// window and serves, paying its network cost, before and after it.
func TestOutageWindow(t *testing.T) {
	h := faultinject.Wrap(Wrap(mkDomain(), USAEast), faultinject.Config{
		Windows: []faultinject.Window{{From: 10 * time.Second, To: 20 * time.Second}}})
	for _, at := range []time.Duration{0, 15 * time.Second, 25 * time.Second} {
		ctx := domain.NewCtx(vclock.NewVirtual(at))
		s, err := h.Call(ctx, "f", []term.Value{term.Int(1)})
		if at == 15*time.Second {
			if !errors.Is(err, domain.ErrUnavailable) {
				t.Errorf("call in the window: err = %v, want ErrUnavailable", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("call at %v: %v", at, err)
		}
		if vals, err := domain.Collect(s); err != nil || len(vals) != 2 || ctx.Clock.Now()-at < USAEast.RTT {
			t.Errorf("call at %v: %v, %v after %v", at, vals, err, ctx.Clock.Now()-at)
		}
	}
}

func TestLoadMultiplier(t *testing.T) {
	p := Profile{Name: "t", Connect: 100 * time.Millisecond}
	loaded := Wrap(mkDomain(), p, WithLoad(func(at time.Duration) float64 {
		if at >= time.Hour {
			return 5
		}
		return 1
	}))
	eNominal, _ := runCall(t, loaded, 0)
	loaded.ResetConnection()
	eLoaded, _ := runCall(t, loaded, 2*time.Hour)
	if eLoaded <= eNominal {
		t.Errorf("load had no effect: %v vs %v", eLoaded, eNominal)
	}
	// Load below 1 is clamped to nominal.
	clamped := Wrap(mkDomain(), p, WithLoad(func(time.Duration) float64 { return 0.1 }))
	eClamped, _ := runCall(t, clamped, 0)
	if eClamped != eNominal {
		t.Errorf("sub-nominal load not clamped: %v vs %v", eClamped, eNominal)
	}
}

func TestHostTransparency(t *testing.T) {
	d := mkDomain()
	h := Wrap(d, Local)
	if h.Name() != "src" {
		t.Errorf("Name = %q", h.Name())
	}
	if len(h.Functions()) != len(d.Functions()) {
		t.Error("Functions not forwarded")
	}
	if h.Inner() != domain.Domain(d) {
		t.Error("Inner not exposed")
	}
	if h.Profile().Name != "local" {
		t.Errorf("Profile = %+v", h.Profile())
	}
}

func TestInnerErrorPropagates(t *testing.T) {
	d := domaintest.New("src")
	d.Define("bad", domaintest.Func{Arity: 0,
		Fn: func([]term.Value) ([]term.Value, error) {
			return nil, errors.New("boom")
		}})
	h := Wrap(d, Local)
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	if _, err := h.Call(ctx, "bad", nil); err == nil || err.Error() != "boom" {
		t.Errorf("err = %v", err)
	}
}
