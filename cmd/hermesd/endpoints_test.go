package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"

	"hermes/internal/core"
	"hermes/internal/memo"
)

// docEndpoints extracts every `GET <url>` bullet from the "HTTP endpoints"
// section of docs/OBSERVABILITY.md, so the doc's endpoint table is the
// test's source of truth.
func docEndpoints(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	i := strings.Index(text, "## HTTP endpoints")
	if i < 0 {
		t.Fatal("docs/OBSERVABILITY.md has no 'HTTP endpoints' section")
	}
	section := text[i:]
	if j := strings.Index(section[1:], "\n## "); j >= 0 {
		section = section[:j+1]
	}
	re := regexp.MustCompile("`GET ([^`\\s]+)`")
	var urls []string
	for _, m := range re.FindAllStringSubmatch(section, -1) {
		urls = append(urls, m[1])
	}
	return urls
}

// TestDocumentedEndpointsServed: every endpoint the observability doc
// lists must be mounted on the hermesd mux — a 404 means the doc and the
// server drifted apart. Built with -pprof and the memo on, since the doc
// documents both surfaces (and notes the pprof gate, which TestPprofGate
// covers separately).
func TestDocumentedEndpointsServed(t *testing.T) {
	urls := docEndpoints(t)
	if len(urls) < 8 {
		t.Fatalf("extracted only %d documented endpoints (%v) — regex or doc section rot", len(urls), urls)
	}

	mcfg := memo.DefaultConfig()
	h, _, err := newObsHandler(BuildDomains(), obsOptions{Pprof: true, Core: core.Options{Memo: &mcfg}})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	seen := map[string]bool{}
	for _, u := range urls {
		resp, err := http.Get(srv.URL + u)
		if err != nil {
			t.Fatalf("GET %s: %v", u, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			t.Errorf("documented endpoint %s is not served (404): %s", u, body)
		}
		path := u
		if q := strings.IndexByte(path, '?'); q >= 0 {
			path = path[:q]
		}
		seen[path] = true
	}

	// The endpoints this test exists to pin: if one of these vanishes
	// from the doc, the table drifted the other way.
	for _, want := range []string{
		"/metrics", "/debug/queries", "/debug/calibration", "/debug/cim",
		"/debug/invariants", "/debug/memo", "/debug/flightrecorder",
		"/debug/pprof/", "/query",
	} {
		if !seen[want] {
			t.Errorf("docs/OBSERVABILITY.md no longer documents %s", want)
		}
	}
}
