package obs

import (
	"fmt"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestHandlerMetricsAndQueries(t *testing.T) {
	o := NewObserver()
	o.Counter("cim_hits_total", "kind", "exact").Add(2)
	s := o.StartQuery("?- q(X).", 0)
	s.Child("call d:f(1)", time.Millisecond).End(2 * time.Millisecond)
	s.End(3 * time.Millisecond)

	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	get := func(path string) string {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %s", path, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	metrics := get("/metrics")
	if !strings.Contains(metrics, `cim_hits_total{kind="exact"} 2`) {
		t.Errorf("/metrics missing counter:\n%s", metrics)
	}
	queries := get("/debug/queries")
	for _, want := range []string{"1 queries started, 1 finished", "?- q(X).", "call d:f(1)"} {
		if !strings.Contains(queries, want) {
			t.Errorf("/debug/queries missing %q:\n%s", want, queries)
		}
	}
}

// TestDebugQueriesRendersNewestFlightRecords: /debug/queries reads the
// flight recorder, newest first, at most debugQueries of them — so with a
// slow-query threshold it lists the recent slow queries.
func TestDebugQueriesRendersNewestFlightRecords(t *testing.T) {
	o := NewObserver()
	o.Flight.SetThreshold(5 * time.Millisecond)
	for i := 0; i < debugQueries+10; i++ {
		s := o.StartQuery(fmt.Sprintf("?- q%d.", i), 0)
		s.End(time.Duration(5+i%2*5) * time.Millisecond) // every query at or above the threshold
	}
	fast := o.StartQuery("?- fast.", 0)
	fast.End(time.Millisecond)

	rr := httptest.NewRecorder()
	Handler(o).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/queries", nil))
	body := rr.Body.String()
	want := fmt.Sprintf("%d queries started, %d finished, %d retained\n", debugQueries+11, debugQueries+11, debugQueries)
	if !strings.HasPrefix(body, want) {
		t.Errorf("/debug/queries header = %q, want %q", strings.SplitN(body, "\n", 2)[0], want)
	}
	newest := fmt.Sprintf("?- q%d.", debugQueries+9)
	if !strings.Contains(body, "-- query 1 ") || strings.Index(body, newest) > strings.Index(body, "-- query 2 ") {
		t.Errorf("the newest record is not rendered first:\n%.400s", body)
	}
	if strings.Contains(body, "?- fast.") || strings.Contains(body, "?- q9.") {
		t.Errorf("/debug/queries renders a skipped or an evicted query:\n%.400s", body)
	}
}
