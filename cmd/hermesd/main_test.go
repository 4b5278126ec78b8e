package main

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/engine"
	"hermes/internal/obs"
	"hermes/internal/remote"
	"hermes/internal/resilience"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

func TestBuildDomains(t *testing.T) {
	doms := BuildDomains()
	if len(doms) != 6 {
		t.Fatalf("domains = %d, want 6", len(doms))
	}
	names := map[string]bool{}
	for _, d := range doms {
		names[d.Name()] = true
		if len(d.Functions()) == 0 {
			t.Errorf("domain %s exports no functions", d.Name())
		}
	}
	for _, want := range []string{"avis", "ingres", "spatial", "terraindb", "faces", "files"} {
		if !names[want] {
			t.Errorf("domain %s missing", want)
		}
	}
}

// TestServeEndToEnd starts the server on an ephemeral port and runs a call
// through the remote client, covering the full hermesd wiring.
func TestServeEndToEnd(t *testing.T) {
	reg := domain.NewRegistry()
	for _, d := range BuildDomains() {
		reg.Register(d)
	}
	srv := remote.NewServer(reg)
	srv.Logf = func(string, ...any) {}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	names, err := remote.DiscoverDomains(l.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("discovered %v", names)
	}
	c := remote.NewClient(l.Addr().String(), "avis")
	s, err := c.Call(domain.NewCtx(vclock.NewVirtual(0)), "actors", []term.Value{term.Str("rope")})
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(s)
	if err != nil || len(vals) != 9 {
		t.Errorf("actors over TCP = %v, %v", vals, err)
	}
}

func TestParseMount(t *testing.T) {
	spec, err := parseMount("avis=10.0.0.7:7117")
	if err != nil || spec.name != "avis" || spec.addr != "10.0.0.7:7117" {
		t.Errorf("parseMount = %+v, %v", spec, err)
	}
	for _, bad := range []string{"", "avis", "=addr", "avis="} {
		if _, err := parseMount(bad); err == nil {
			t.Errorf("parseMount(%q) should fail", bad)
		}
	}
}

// startHermesd serves a registry the way main() does and returns its
// address.
func startHermesd(t *testing.T, reg *domain.Registry) string {
	return startHermesdCfg(t, reg, nil)
}

// startHermesdCfg is startHermesd with a configuration hook applied to
// the server before it listens (node name, trace budgets, debug info).
func startHermesdCfg(t *testing.T, reg *domain.Registry, cfg func(*remote.Server)) string {
	t.Helper()
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
	return l.Addr().String()
}

// collectMultiset gathers a stream into a sorted multiset of rendered
// values, so comparisons are order-insensitive but duplicate-sensitive.
func collectMultiset(t *testing.T, s domain.Stream, err error) []string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	vals, err := domain.Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, 0, len(vals))
	for _, v := range vals {
		out = append(out, v.String())
	}
	sort.Strings(out)
	return out
}

// TestTwoHopMountCallDifferential: hermesd B mounts hermesd A's domains
// (mediators-of-mediators, wired exactly as main() does with -mount) and a
// client calling through B must see the same answer multiset as calling
// the domain locally.
func TestTwoHopMountCallDifferential(t *testing.T) {
	local := BuildDomains()
	regA := domain.NewRegistry()
	for _, d := range local {
		regA.Register(d)
	}
	addrA := startHermesd(t, regA)

	regB := domain.NewRegistry()
	pol := resilience.DefaultPolicy()
	for _, m := range buildMounts([]mountSpec{{name: "avis", addr: addrA}, {name: "ingres", addr: addrA}}) {
		regB.Register(resilience.Wrap(m, pol))
	}
	addrB := startHermesd(t, regB)

	calls := []struct {
		dom, fn string
		args    []term.Value
	}{
		{"avis", "actors", []term.Value{term.Str("rope")}},
		{"avis", "objects_in_range", []term.Value{term.Str("rope"), term.Int(1), term.Int(200)}},
		{"ingres", "all", []term.Value{term.Str("cast")}},
		{"ingres", "all", []term.Value{term.Str("inventory")}},
	}
	localReg := domain.NewRegistry()
	for _, d := range local {
		localReg.Register(d)
	}
	for _, c := range calls {
		viaMount := remote.NewClient(addrB, c.dom)
		s, err := viaMount.Call(domain.NewCtx(vclock.NewVirtual(0)), c.fn, c.args)
		got := collectMultiset(t, s, err)
		s, err = localReg.Call(domain.NewCtx(vclock.NewVirtual(0)), domain.Call{Domain: c.dom, Function: c.fn, Args: c.args})
		want := collectMultiset(t, s, err)
		if len(got) == 0 {
			t.Errorf("%s:%s over two hops returned nothing", c.dom, c.fn)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s:%s two-hop multiset diverges from local:\n two-hop: %v\n local:   %v", c.dom, c.fn, got, want)
		}
	}
}

// queryAnswers runs q through a newObsHandler instance and returns the
// sorted answer multiset.
func queryAnswers(t *testing.T, h http.Handler, q string) []string {
	t.Helper()
	req := httptest.NewRequest("GET", "/query?q="+strings.ReplaceAll(q, " ", "%20"), nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("query %q: HTTP %d: %s", q, rec.Code, rec.Body.String())
	}
	var answers []string
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if strings.Contains(line, " answers, first in ") {
			break
		}
		if line != "" {
			answers = append(answers, line)
		}
	}
	sort.Strings(answers)
	return answers
}

// TestTwoHopMountQueryDifferential runs full mediator queries on a node
// whose only sources are mounts of another hermesd, and compares the
// answer multisets against the same queries over the local domains. This
// is the paper's federation story end to end: rules, invariants, caching,
// and resilience all operating across two real network hops.
func TestTwoHopMountQueryDifferential(t *testing.T) {
	local := BuildDomains()
	regA := domain.NewRegistry()
	for _, d := range local {
		regA.Register(d)
	}
	addrA := startHermesd(t, regA)

	var mountDoms []domain.Domain
	for _, m := range buildMounts([]mountSpec{{name: "avis", addr: addrA}}) {
		mountDoms = append(mountDoms, m)
	}
	twoHop, _, err := newObsHandler(mountDoms, obsOptions{Core: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := newObsHandler(local, obsOptions{Core: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"?- actors(A).",
		"?- objects_between(10, 120, O).",
	} {
		got := queryAnswers(t, twoHop, q)
		want := queryAnswers(t, direct, q)
		if len(got) == 0 {
			t.Errorf("query %q over mounts returned nothing", q)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("query %q diverges over mounts:\n two-hop: %v\n local:   %v", q, got, want)
		}
	}
}

// findTag walks a span snapshot for the first node tagged k=v.
func findTag(d obs.SpanData, k, v string) *obs.SpanData {
	if d.Tag(k) == v {
		return &d
	}
	for i := range d.Children {
		if hit := findTag(d.Children[i], k, v); hit != nil {
			return hit
		}
	}
	return nil
}

// foreignTotal sums the durations of the topmost spans tagged with the
// given node name — the roots of stitched remote subtrees — without
// descending into them (a hop's own children are part of its total).
func foreignTotal(d obs.SpanData, node string) time.Duration {
	if d.Tag("node") == node {
		return d.Duration()
	}
	var sum time.Duration
	for _, c := range d.Children {
		sum += foreignTotal(c, node)
	}
	return sum
}

// recentQuery pulls a finished query's span tree out of a system's flight
// recorder by root name.
func recentQuery(t *testing.T, sys *core.System, name string) obs.SpanData {
	t.Helper()
	for _, r := range sys.Obs.Flight.Records() {
		if r.Name == name {
			return r.Root
		}
	}
	t.Fatalf("query %q not found in the flight recorder", name)
	return obs.SpanData{}
}

// TestTwoHopFederatedTraceDifferential is the federated-tracing
// acceptance story over the real mount wiring: node A's embedded mediator
// runs queries whose only source is a mount of node B, and the answers
// must match a local run while the query's span tree stitches B's serve
// subtrees under A's call spans — one tree, per-hop node= tags, remote
// compute bounded by the caller's total.
func TestTwoHopFederatedTraceDifferential(t *testing.T) {
	regB := domain.NewRegistry()
	for _, d := range BuildDomains() {
		regB.Register(d)
	}
	addrB := startHermesdCfg(t, regB, func(s *remote.Server) { s.NodeName = "node-b" })

	var doms []domain.Domain
	for _, m := range buildMounts([]mountSpec{{name: "avis", addr: addrB}}) {
		doms = append(doms, m)
	}
	twoHop, sys, err := newObsHandler(doms, obsOptions{
		Core: core.Options{Parallelism: 1, Clock: vclock.NewWall()}, NodeName: "node-a",
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, _, err := newObsHandler(BuildDomains(), obsOptions{Core: core.Options{Parallelism: 1}})
	if err != nil {
		t.Fatal(err)
	}

	queries := []string{"?- actors(A).", "?- objects_between(10, 120, O)."}
	for _, q := range queries {
		want := queryAnswers(t, direct, q)
		got := queryAnswers(t, twoHop, q)
		if len(got) == 0 {
			t.Errorf("query %q over the mount returned nothing", q)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("query %q diverges over the mount:\n got:  %v\n want: %v", q, got, want)
		}
	}

	// The trace: one stitched tree rooted at node-a, B's serve subtree
	// tagged node-b beneath the call span with the wire split.
	root := recentQuery(t, sys, queries[0])
	if root.Tag("node") != "node-a" {
		t.Errorf("origin hop node tag = %q, want node-a", root.Tag("node"))
	}
	serve := findTag(root, "node", "node-b")
	if serve == nil {
		t.Fatalf("no node-b serve subtree stitched into the trace:\n%s", obs.Explain(root))
	}
	call := findTag(root, "remote", addrB)
	if call == nil || call.Tag("remote.wire_ms") == "" {
		t.Errorf("remote call span missing or without remote.wire_ms:\n%s", obs.Explain(root))
	}
	sum := foreignTotal(root, "node-b")
	if sum <= 0 {
		t.Error("stitched remote subtree reports no duration")
	}
	if root.Duration() < sum {
		t.Errorf("root total %v < stitched remote total %v: foreign subtrees not bounded by the caller",
			root.Duration(), sum)
	}
	if m := sys.Obs.Metrics.Snapshot(); m["hermes_trace_stitched_total"] < 1 {
		t.Errorf("hermes_trace_stitched_total = %v, want >= 1", m["hermes_trace_stitched_total"])
	}
}

// latencyShiftDomain serves a fixed 5-answer relation whose first call is
// slow and every later call fast: the caller's first cost observation is
// badly stale for the rest of the run, so its calibration q-error starts
// high and must shrink as fresh measurements and remote actuals fold in.
type latencyShiftDomain struct {
	mu    sync.Mutex
	calls int
}

func (d *latencyShiftDomain) Name() string { return "cal" }
func (d *latencyShiftDomain) Functions() []domain.FuncSpec {
	return []domain.FuncSpec{{Name: "gen", Arity: 2}}
}
func (d *latencyShiftDomain) Call(ctx *domain.Ctx, fn string, args []term.Value) (domain.Stream, error) {
	d.mu.Lock()
	d.calls++
	first := d.calls == 1
	d.mu.Unlock()
	if first {
		time.Sleep(200 * time.Millisecond)
	} else {
		time.Sleep(10 * time.Millisecond)
	}
	out := make([]term.Value, 5)
	for i := range out {
		out[i] = term.Int(int64(i))
	}
	return domain.NewSliceStream(out), nil
}

// TestRemoteActualsFeedCalibration: a mediator whose source is a mounted
// peer grades its cost estimates against the peer's reported [Tf,Ta,Card]
// actuals — the trace frames' payload reaching the DCSM's calibration through
// the system's actuals hook. After warm rounds against a source whose
// first observation was badly stale, the median q-error must shrink.
//
// early is the median of round 2's two samples, each ≈ 200 ms / 10 ms;
// the mean estimate of round k is off by ≈ (200 + 10(k-2)) / 10(k-1),
// and final is the median over rounds 2 to 40, ≈ round 21's 1.9. A
// scheduling stall that slows a round-2 call brings early down to final
// only past ≈ 80 ms.
func TestRemoteActualsFeedCalibration(t *testing.T) {
	regB := domain.NewRegistry()
	regB.Register(&latencyShiftDomain{})
	addrB := startHermesdCfg(t, regB, func(s *remote.Server) { s.NodeName = "node-b" })

	o := obs.NewObserver()
	sys := core.NewSystem(core.Options{Obs: o, Clock: vclock.NewWall(), Parallelism: 1})
	sys.Register(remote.NewClient(addrB, "cal"))
	if err := sys.LoadProgram("vals(N, Nonce, X) :- in(X, cal:gen(N, Nonce))."); err != nil {
		t.Fatal(err)
	}

	run := func(round int) {
		t.Helper()
		// A fresh nonce per round keeps the CIM from serving the repeat
		// out of cache: every round really crosses the wire.
		cur, err := sys.QueryTraced(fmt.Sprintf("?- vals(5, %d, X).", round), false)
		if err != nil {
			t.Fatal(err)
		}
		answers, _, err := engine.CollectAll(cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(answers) != 5 {
			t.Fatalf("round %d: %d answers, want 5", round, len(answers))
		}
	}

	run(1)
	run(2)
	early, earlyN := sys.DCSM.Calibration().Grade("cal", "gen")
	if earlyN == 0 {
		t.Fatal("no calibration samples after a warm round: remote actuals never reached the caller's calibration")
	}
	if early <= 1.5 {
		t.Fatalf("early median q-error %.2f, want clearly mis-calibrated (> 1.5) after the latency shift", early)
	}
	const rounds = 40
	for round := 3; round <= rounds; round++ {
		run(round)
	}
	final, finalN := sys.DCSM.Calibration().Grade("cal", "gen")
	if finalN < 3 {
		t.Fatalf("calibration samples = %d after %d rounds, want >= 3", finalN, rounds)
	}
	if final >= early {
		t.Errorf("median q-error did not shrink over warm rounds: early %.2f, final %.2f", early, final)
	}
}

// TestDebugClusterRollup: /debug/cluster merges the local node with every
// healthy mount and marks dead peers degraded — HTTP 200 regardless, the
// rollup reports whatever the cluster could deliver.
func TestDebugClusterRollup(t *testing.T) {
	// Healthy peer: a hermesd with a debug-info producer, reporting 3
	// queries of its own.
	oB := obs.NewObserver()
	for i := 0; i < 3; i++ {
		oB.Counter("hermes_queries_total").Inc()
	}
	regB := domain.NewRegistry()
	regB.Register(&latencyShiftDomain{})
	addrB := startHermesdCfg(t, regB, func(s *remote.Server) {
		s.NodeName = "node-b"
		s.SetObserver(oB)
		s.SetDebugInfo(func() ([]byte, error) { return selfInfoJSON("node-b", oB, nil) })
	})

	// Dead peer: an address that was listening once and is gone.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrDead := l.Addr().String()
	l.Close()

	mounts := buildMounts([]mountSpec{{name: "cal", addr: addrB}, {name: "dead", addr: addrDead}})
	h, _, err := newObsHandler(BuildDomains(), obsOptions{
		Core: core.Options{Parallelism: 1}, NodeName: "node-a",
		Mounts: mounts, PeerTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	queryAnswers(t, h, "?- actors(A).") // one local query on the books

	req := httptest.NewRequest("GET", "/debug/cluster", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/cluster with a dead peer: HTTP %d, want 200", rec.Code)
	}
	var view clusterView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("cluster view does not decode: %v\n%s", err, rec.Body.String())
	}
	if view.Node != "node-a" {
		t.Errorf("view node = %q, want node-a", view.Node)
	}
	if len(view.Peers) != 2 {
		t.Fatalf("peers = %d, want 2", len(view.Peers))
	}
	byMount := map[string]peerReport{}
	for _, p := range view.Peers {
		byMount[p.Mount] = p
	}
	if p := byMount["cal"]; p.Degraded || len(p.Info) == 0 {
		t.Errorf("healthy peer misreported: %+v", p)
	}
	if p := byMount["dead"]; !p.Degraded || p.Err == "" {
		t.Errorf("dead peer not marked degraded with an error: %+v", p)
	}
	if view.Merged.Nodes != 2 || view.Merged.DegradedPeers != 1 {
		t.Errorf("merged nodes=%d degraded=%d, want 2 healthy nodes and 1 degraded peer",
			view.Merged.Nodes, view.Merged.DegradedPeers)
	}
	if view.Merged.Queries != 4 {
		t.Errorf("merged queries_total = %v, want 4 (1 local + 3 from node-b)", view.Merged.Queries)
	}
}

// TestDebugClusterUnknownOpPeer: a peer that does not serve debug (an
// older build) answers the request with `unknown op`, as a server answers
// every op it does not know. DebugSnapshot returns that error, and
// /debug/cluster reports the peer degraded — HTTP 200 regardless.
func TestDebugClusterUnknownOpPeer(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				dec, enc := json.NewDecoder(conn), json.NewEncoder(conn)
				for {
					var f remote.Frame
					if dec.Decode(&f) != nil {
						return
					}
					switch f.Op {
					case remote.OpHello:
						enc.Encode(remote.Frame{Op: remote.OpHello, Version: remote.ProtocolVersion})
					case remote.OpHeartbeat:
						enc.Encode(remote.Frame{Op: remote.OpHeartbeat, ID: f.ID})
					default:
						enc.Encode(remote.Frame{Op: remote.OpError, ID: f.ID, Err: fmt.Sprintf("unknown op %q", f.Op)})
					}
				}
			}()
		}
	}()
	addr := l.Addr().String()
	c := remote.NewClient(addr, "old")
	defer c.Close()
	if _, err := c.DebugSnapshot(2 * time.Second); err == nil || !strings.Contains(err.Error(), "unknown op") {
		t.Fatalf("DebugSnapshot against a peer without debug: err = %v, want unknown op", err)
	}

	h, _, err := newObsHandler(BuildDomains(), obsOptions{
		Core: core.Options{Parallelism: 1}, NodeName: "node-a",
		Mounts: buildMounts([]mountSpec{{name: "old", addr: addr}}), PeerTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/cluster", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/cluster with a peer without debug: HTTP %d, want 200", rec.Code)
	}
	var view clusterView
	if err := json.Unmarshal(rec.Body.Bytes(), &view); err != nil {
		t.Fatalf("cluster view does not decode: %v\n%s", err, rec.Body.String())
	}
	if len(view.Peers) != 1 {
		t.Fatalf("peers = %d, want 1", len(view.Peers))
	}
	if p := view.Peers[0]; !p.Degraded || !strings.Contains(p.Err, "unknown op") {
		t.Errorf("peer without debug not marked degraded with its unknown-op error: %+v", p)
	}
	if view.Merged.Nodes != 1 || view.Merged.DegradedPeers != 1 {
		t.Errorf("merged nodes=%d degraded=%d, want 1 and 1", view.Merged.Nodes, view.Merged.DegradedPeers)
	}
}
