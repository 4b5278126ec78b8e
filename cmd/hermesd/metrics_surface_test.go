package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/memo"
	"hermes/internal/remote"
	"hermes/internal/resilience"
)

// surfaceDelta is every difference between the series a freshly wired
// daemon lists and testdata/metrics_surface.golden, which is the parent
// commit's list (what its preRegisterMetrics produced for this wiring).
var surfaceDelta = map[string]string{
	// A mount's dial tallies are attached when the client is wired, so they
	// list at zero; the parent created them at the first dial.
	`hermes_remote_dials_total{domain="peer",outcome="error"}`: "added",
	`hermes_remote_dials_total{domain="peer",outcome="ok"}`:    "added",
	// Each loaded invariant's hit series is attached when the invariant is
	// registered, so it lists at zero; the parent created it at the first hit.
	`hermes_cim_invariant_hits_total{invariant="F1 <= G1 & G2 <= F2 => avis:frames_to_objects(V, F1, F2) >= avis:frames_to_objects(V, G1, G2)."}`: "added",
	`hermes_cim_invariant_hits_total{invariant="true => avis:frames_to_objects(V, F, L) = avis:objects_in_range(V, F, L)."}`:                      "added",
	// Families that answered no operator question and that nothing read
	// are deleted (docs/OBSERVABILITY.md's catalog names a question and a
	// reader for every family that stays).
	"# TYPE hermes_query_answers_total counter":          "removed",
	"hermes_query_answers_total":                         "removed",
	"# TYPE hermes_engine_parallel_unions_total counter": "removed",
	"hermes_engine_parallel_unions_total":                "removed",
	"# TYPE hermes_engine_parallel_stages_total counter": "removed",
	"hermes_engine_parallel_stages_total":                "removed",
	"# TYPE hermes_engine_inflight_branches gauge":       "removed",
	"hermes_engine_inflight_branches":                    "removed",
	"# TYPE hermes_admission_peak_lanes gauge":           "removed",
	"hermes_admission_peak_lanes":                        "removed",
	"# TYPE hermes_remote_sessions_total counter":        "removed",
	`hermes_remote_sessions_total{proto="v2"}`:           "removed",
	"# TYPE hermes_remote_cancels_total counter":         "removed",
	"hermes_remote_cancels_total":                        "removed",
	"# TYPE hermes_remote_heartbeats_total counter":      "removed",
	"hermes_remote_heartbeats_total":                     "removed",
}

// TestFreshDaemonMetricSurface: the metric surface now follows from wiring
// alone. A daemon wired the way main wires it — embedded mediator with
// admission pool and memo, remote.Server, one -mount client — lists, before
// any traffic, exactly the families of docs/OBSERVABILITY.md's table, each
// with # TYPE and a non-empty # HELP, and the golden's series, all at zero.
// Every catalog row names the operator question its family answers and a
// reader of the family (checkCatalogReaders).
func TestFreshDaemonMetricSurface(t *testing.T) {
	doms := BuildDomains()
	reg := domain.NewRegistry()
	for _, d := range doms {
		reg.Register(d)
	}
	mounts := buildMounts([]mountSpec{{name: "peer", addr: "127.0.0.1:1"}})
	for _, m := range mounts {
		reg.Register(resilience.Wrap(m, resilience.DefaultPolicy()))
		doms = append(doms, m)
	}
	mcfg := memo.DefaultConfig()
	_, sys, err := newObsHandler(doms, obsOptions{Core: core.Options{MaxInflightCalls: 4, Memo: &mcfg, CalInflateQuantile: 0.9, ColdStartInflation: 1.5}, NodeName: "n", Mounts: mounts})
	if err != nil {
		t.Fatal(err)
	}
	newServer(reg, "n", remote.DefaultTraceMaxDepth, remote.DefaultTraceMaxSubtreeBytes, sys)

	var sb strings.Builder
	if err := sys.Obs.Metrics.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	helped := map[string]bool{}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		switch f := strings.Fields(line); {
		case strings.HasPrefix(line, "# HELP "):
			helped[f[2]] = len(f) > 3
		case strings.HasPrefix(line, "# TYPE "):
			if !helped[f[2]] {
				t.Errorf("family %s has no # HELP text", f[2])
			}
			got = append(got, line)
		default:
			i := strings.LastIndexByte(line, ' ')
			if line[i+1:] != "0" {
				t.Errorf("series not at zero before traffic: %s", line)
			}
			got = append(got, line[:i])
		}
	}

	golden, err := os.ReadFile("testdata/metrics_surface.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		want[line] = true
	}
	seen := map[string]bool{}
	for _, line := range got {
		seen[line] = true
		if !want[line] && surfaceDelta[line] != "added" {
			t.Errorf("lists %q, which the parent's surface does not", line)
		}
	}
	for line := range want {
		if !seen[line] && surfaceDelta[line] != "removed" {
			t.Errorf("does not list %q, which the parent's surface does", line)
		}
	}
	for line, how := range surfaceDelta {
		if (how == "added") != seen[line] || (how == "removed") != want[line] {
			t.Errorf("surfaceDelta says %q is %s, but listed=%v golden=%v", line, how, seen[line], want[line])
		}
	}

	// The families are exactly the documented ones.
	doc, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	var documented, families []string
	for _, m := range regexp.MustCompile("(?m)^\\|\\s*`(hermes_[a-z0-9_]+)`").FindAllStringSubmatch(string(doc), -1) {
		documented = append(documented, m[1])
	}
	for fam := range helped {
		families = append(families, fam)
	}
	sort.Strings(documented)
	sort.Strings(families)
	if strings.Join(documented, "\n") != strings.Join(families, "\n") {
		t.Errorf("families listed by a fresh daemon differ from docs/OBSERVABILITY.md's table:\nlisted:     %v\ndocumented: %v", families, documented)
	}
	checkCatalogReaders(t, string(doc))
}

// catalogRow matches a metric-catalog row: its family and its last cell,
// "operator question? · reader, reader".
var catalogRow = regexp.MustCompile("(?m)^\\|\\s*`(hermes_[a-z0-9_]+)`.*\\|([^|\n]*)\\|\\s*$")

// nonTestReaders are the code outside tests that reads families by name,
// as the catalog names them, and the file (relative to this package) that
// must mention each family it is named for.
var nonTestReaders = map[string]string{
	"bench/traced.go": "../../bench/traced.go",
	"/debug/cluster":  "cluster.go",
	"mergeCluster":    "cluster.go",
	"-fig adaptive":   "../../internal/experiments/adaptive.go",
}

// checkCatalogReaders holds every catalog row to the audit rule: the last
// cell states the operator question the family answers and names at least
// one reader, either a test (pkg.TestName) whose body mentions the family
// or a non-test reader whose file does. Listing by a fresh daemon is not a
// reader.
func checkCatalogReaders(t *testing.T, doc string) {
	t.Helper()
	tests := map[string]string{} // "pkg.TestName" -> function body
	funcRe := regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	for _, root := range []string{"../../cmd", "../../internal"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !strings.HasSuffix(path, "_test.go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			text, pkg := string(src), filepath.Base(filepath.Dir(path))
			for _, loc := range funcRe.FindAllStringSubmatchIndex(text, -1) {
				body := text[loc[0]:]
				if end := strings.Index(body[1:], "\nfunc "); end >= 0 {
					body = body[:end+1]
				}
				tests[pkg+"."+text[loc[2]:loc[3]]] = body
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	readerRe := regexp.MustCompile("`([^`]+)`")
	rows := catalogRow.FindAllStringSubmatch(doc, -1)
	if len(rows) == 0 {
		t.Fatal("no metric catalog rows found")
	}
	for _, row := range rows {
		family, cell := row[1], strings.TrimSpace(row[2])
		question, readers, ok := strings.Cut(cell, " · ")
		if !ok || !strings.HasSuffix(strings.TrimSpace(question), "?") {
			t.Errorf("%s: catalog cell %q states no operator question (want \"question? · reader\")", family, cell)
			continue
		}
		names := readerRe.FindAllStringSubmatch(readers, -1)
		if len(names) == 0 {
			t.Errorf("%s: catalog cell names no reader: %q", family, cell)
		}
		for _, m := range names {
			var text string
			if file, ok := nonTestReaders[m[1]]; ok {
				src, err := os.ReadFile(file)
				if err != nil {
					t.Fatal(err)
				}
				text = string(src)
			} else if body, ok := tests[m[1]]; ok {
				text = body
			} else {
				t.Errorf("%s: reader %q is neither a test of this repository nor a known non-test reader", family, m[1])
				continue
			}
			if !strings.Contains(text, family) {
				t.Errorf("%s: reader %s does not mention the family", family, m[1])
			}
		}
	}
}
