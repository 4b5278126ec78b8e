package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"encoding/json"
	"os"
	"path/filepath"

	"hermes/internal/admission"
	"hermes/internal/core"
	"hermes/internal/domains/avis"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/vclock"
)

// TestObsEndpoints exercises the observability HTTP surface end to end:
// a query through /query, then /metrics (Prometheus text with CIM and
// breaker families) and /debug/queries (the span ring buffer).
func TestObsEndpoints(t *testing.T) {
	h, _, err := newObsHandler(BuildDomains(), obsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	// A scrape before any traffic is already non-empty: pre-registered
	// CIM counters and the per-domain breaker-state gauges.
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	for _, want := range []string{
		`hermes_cim_lookups_total{outcome="exact"} 0`,
		`hermes_breaker_state{domain="avis"} 0`,
		"# TYPE hermes_cim_lookups_total counter",
		"# TYPE hermes_breaker_state gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body = get("/query?q=" + url.QueryEscape("?- actors(A)."))
	if code != http.StatusOK {
		t.Fatalf("/query status = %d: %s", code, body)
	}
	if !strings.Contains(body, "A=") || !strings.Contains(body, "answers") {
		t.Errorf("/query body has no answers:\n%s", body)
	}
	if !strings.Contains(body, "plan-choice") || !strings.Contains(body, "call avis:") {
		t.Errorf("/query body has no span tree:\n%s", body)
	}

	// The query moved the counters and landed in the span ring buffer.
	if _, body = get("/metrics"); !strings.Contains(body, "hermes_queries_total 1") {
		t.Errorf("/metrics after query missing hermes_queries_total 1\n%s", body)
	}
	code, body = get("/debug/queries")
	if code != http.StatusOK {
		t.Fatalf("/debug/queries status = %d", code)
	}
	if !strings.Contains(body, "?- actors(A).") || !strings.Contains(body, "call avis:actors") {
		t.Errorf("/debug/queries missing the traced query:\n%s", body)
	}

	if code, _ = get("/query"); code != http.StatusBadRequest {
		t.Errorf("/query without q = %d, want 400", code)
	}
}

// TestQueryAdmissionShed: with -max-inflight 1 and -shed-policy shed, a
// /query arriving while the only lane is held answers 503 with a
// Retry-After header — before any source sees it — and serves normally
// once the lane frees.
func TestQueryAdmissionShed(t *testing.T) {
	h, sys, err := newObsHandler(BuildDomains(), obsOptions{Core: core.Options{Parallelism: 1, MaxInflightCalls: 1, ShedPolicy: admission.PolicyShed}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Hold the pool's only lane, as a long-running query session would.
	_, release, err := sys.AdmitCtx(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/query?q=" + url.QueryEscape("?- actors(A)."))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated /query status = %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After header")
	}
	if !strings.Contains(string(body), "overloaded") {
		t.Errorf("503 body does not mention overload: %s", body)
	}

	// Metrics recorded the shed.
	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(metrics), "hermes_admission_shed_total 1") {
		t.Errorf("/metrics missing hermes_admission_shed_total 1:\n%s", metrics)
	}

	// Lane freed: the same query now succeeds.
	release()
	resp, err = http.Get(srv.URL + "/query?q=" + url.QueryEscape("?- actors(A)."))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release /query status = %d: %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "A=") {
		t.Errorf("post-release /query has no answers:\n%s", body)
	}
}

// TestQueryConcurrentSessions: without the old global query mutex,
// concurrent /query requests all succeed on their own forked clocks.
func TestQueryConcurrentSessions(t *testing.T) {
	h, _, err := newObsHandler(BuildDomains(), obsOptions{Core: core.Options{Parallelism: 2, MaxInflightCalls: 4}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := http.Get(srv.URL + "/query?q=" + url.QueryEscape("?- actors(A)."))
			if err != nil {
				errs <- err
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d: %s", resp.StatusCode, body)
				return
			}
			if !strings.Contains(string(body), "A=") {
				errs <- fmt.Errorf("no answers: %s", body)
				return
			}
			errs <- nil
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// TestCalibrationCIMAndFlightEndpoints drives the seed example workload
// and checks the three new debug surfaces: non-empty q-error histograms
// on /metrics, the savings ledger on /debug/cim, the joined calibration
// table on /debug/calibration, and the flight-recorder JSONL with the
// query's full span tree.
func TestCalibrationCIMAndFlightEndpoints(t *testing.T) {
	h, _, err := newObsHandler(BuildDomains(), obsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	query := func(q string) {
		t.Helper()
		if code, body := get("/query?q=" + url.QueryEscape(q)); code != http.StatusOK {
			t.Fatalf("/query %s = %d: %s", q, code, body)
		}
	}

	query("?- objects_between(4, 47, O).")  // miss: trains the DCSM
	query("?- objects_between(10, 90, O).") // miss again (90 > 47): estimated, measured, calibrated
	query("?- actors(A).")                  // miss
	query("?- actors(A).")                  // exact hit: credits the savings ledger

	// The second frames_to_objects call had both a DCSM estimate and a
	// measurement, so the avis q-error histograms are non-empty.
	_, body := get("/metrics")
	for _, want := range []string{
		`hermes_dcsm_qerror_ta_count{domain="avis"} 1`,
		`hermes_dcsm_qerror_tf_count{domain="avis"} 1`,
		`hermes_dcsm_qerror_card_count{domain="avis"} 1`,
		"# TYPE hermes_dcsm_qerror_ta summary",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body := get("/debug/calibration")
	if code != http.StatusOK {
		t.Fatalf("/debug/calibration status = %d", code)
	}
	if !strings.Contains(body, "avis:frames_to_objects") || !strings.Contains(body, "records") {
		t.Errorf("/debug/calibration missing the calibrated function:\n%s", body)
	}

	code, body = get("/debug/cim")
	if code != http.StatusOK {
		t.Fatalf("/debug/cim status = %d", code)
	}
	for _, want := range []string{"CIM savings ledger", "(exact)", "avis:actors"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/cim missing %q:\n%s", want, body)
		}
	}

	code, body = get("/debug/flightrecorder")
	if code != http.StatusOK {
		t.Fatalf("/debug/flightrecorder status = %d", code)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 4 {
		t.Fatalf("flight recorder has %d records, want 4:\n%s", len(lines), body)
	}
	var rec obs.FlightRecord
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec); err != nil {
		t.Fatalf("bad flight JSONL: %v\n%s", err, body)
	}
	if rec.Name != "?- actors(A)." {
		t.Errorf("last flight record = %q, want the last query", rec.Name)
	}
	found := false
	for _, c := range rec.Root.Children {
		if strings.HasPrefix(c.Name, "call avis:actors") {
			found = true
		}
	}
	if !found {
		t.Errorf("flight record has no call span: %+v", rec.Root)
	}
}

// TestFlightSnapshotFile: writeFlightSnapshot dumps the ring to disk, the
// SIGQUIT handler's workhorse.
func TestFlightSnapshotFile(t *testing.T) {
	h, sys, err := newObsHandler(BuildDomains(), obsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	if _, err := http.Get(srv.URL + "/query?q=" + url.QueryEscape("?- actors(A).")); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if err := writeFlightSnapshot(sys.Obs, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "?- actors(A).") {
		t.Errorf("snapshot missing the recorded query:\n%s", data)
	}
}

// TestSlowQueryThreshold: with -slow-query-ms above the workload's cost,
// finished queries are offered to the flight recorder but skipped.
func TestSlowQueryThreshold(t *testing.T) {
	h, sys, err := newObsHandler(BuildDomains(), obsOptions{SlowQueryMS: 3600000})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	if _, err := http.Get(srv.URL + "/query?q=" + url.QueryEscape("?- actors(A).")); err != nil {
		t.Fatal(err)
	}
	if got := sys.Obs.Flight.Records(); len(got) != 0 {
		t.Errorf("fast query recorded despite threshold: %+v", got)
	}
	if _, offered, skipped := sys.Obs.Flight.Counts(); offered != 1 || skipped != 1 {
		t.Errorf("flight stats = %d offered, %d skipped, want 1/1", offered, skipped)
	}
}

// TestPprofGate: the Go profiling handlers are mounted only with -pprof.
func TestPprofGate(t *testing.T) {
	on, _, err := newObsHandler(BuildDomains(), obsOptions{Pprof: true})
	if err != nil {
		t.Fatal(err)
	}
	off, _, err := newObsHandler(BuildDomains(), obsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		h    http.Handler
		want int
	}{{on, http.StatusOK}, {off, http.StatusNotFound}} {
		srv := httptest.NewServer(tc.h)
		resp, err := http.Get(srv.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		srv.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("/debug/pprof/ = %d, want %d", resp.StatusCode, tc.want)
		}
	}
}

// TestMemoEndpoint: with the memo enabled, a repeated IDB query hits the
// memo, /debug/memo shows the entry, and the memo metric families appear
// in /metrics; with the memo disabled, /debug/memo says so.
func TestMemoEndpoint(t *testing.T) {
	mcfg := memo.DefaultConfig()
	h, sys, err := newObsHandler(BuildDomains(), obsOptions{Core: core.Options{Memo: &mcfg}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}
	for i := 0; i < 2; i++ {
		if code, body := get("/query?q=" + url.QueryEscape("?- actors(A).")); code != http.StatusOK {
			t.Fatalf("/query #%d = %d: %s", i, code, body)
		}
	}
	st := sys.Memo.Stats()
	if st.Hits != 1 || st.Stores != 1 {
		t.Fatalf("memo stats after repeat: %+v", st)
	}
	code, body := get("/debug/memo")
	if code != http.StatusOK {
		t.Fatalf("/debug/memo status = %d", code)
	}
	for _, want := range []string{"hits=1", "actors", "most recently used entries"} {
		if !strings.Contains(body, want) {
			t.Errorf("/debug/memo missing %q:\n%s", want, body)
		}
	}
	_, metrics := get("/metrics")
	for _, want := range []string{
		"hermes_memo_hits_total 1",
		"hermes_memo_stores_total 1",
		"hermes_memo_entries 1",
		"# HELP hermes_memo_saved_ms_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Disabled: the endpoint still answers, explaining itself.
	h2, _, err := newObsHandler(BuildDomains(), obsOptions{})
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(h2)
	defer srv2.Close()
	resp, err := http.Get(srv2.URL + "/debug/memo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	off, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(off), "memo disabled") {
		t.Errorf("/debug/memo without memo = %q", off)
	}
}

// sleepRecorder is a real-time clock that never blocks: Sleep adds the
// requested duration to a total shared with every fork.
type sleepRecorder struct {
	start time.Time
	slept *atomic.Int64
}

func (c sleepRecorder) Now() time.Duration   { return time.Since(c.start) }
func (c sleepRecorder) Fork() vclock.Clock   { return c }
func (c sleepRecorder) Join(...vclock.Clock) {}
func (c sleepRecorder) RealTime() bool       { return true }
func (c sleepRecorder) Sleep(d time.Duration) {
	if d > 0 {
		c.slept.Add(int64(d))
	}
}

// TestLiveNodeSleepsOnNothing: on a real-time clock the mediator asks for
// no sleep at all once the source charges nothing — cold, as a CIM exact
// hit, and memo-served. What a live hermesd waits for is its sources.
func TestLiveNodeSleepsOnNothing(t *testing.T) {
	clk := sleepRecorder{time.Now(), new(atomic.Int64)}
	mcfg := memo.DefaultConfig()
	doms := BuildDomains()
	doms[0].(*avis.Store).SetCostParams(avis.CostParams{}) // serverProgram's rules call nothing else
	h, sys, err := newObsHandler(doms, obsOptions{Core: core.Options{Clock: clk, Memo: &mcfg}})
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"?- objects_between(4, 47, O).",                    // cold: the source is called
		"?- in(O, avis:frames_to_objects('rope', 4, 47)).", // the same call: CIM exact hit
		"?- objects_between(4, 47, O).",                    // the same subgoal: memo replay
	} {
		if got := len(queryAnswers(t, h, q)); got != 19 {
			t.Fatalf("%s: %d answers, want 19", q, got)
		}
	}
	if cs, ms := sys.CIM.Stats(), sys.Memo.Stats(); cs.Misses != 1 || cs.ExactHits != 1 || ms.Hits != 1 {
		t.Fatalf("want one miss, one CIM exact hit, one memo hit; got cim %+v memo %+v", cs, ms)
	}
	if got := time.Duration(clk.slept.Load()); got != 0 {
		t.Errorf("mediator requested %v of sleep over three queries, want 0", got)
	}
}
