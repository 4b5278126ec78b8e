// Command doccheck verifies that the documentation matches the tree: every
// repo-relative path the docs mention must exist, every markdown link
// target must resolve, every CLI flag the docs attribute to one of
// this repo's binaries must actually be defined by a command under cmd/,
// and three tables must stay in two-way sync with the tree: README's
// hermesd flag table with the flags cmd/hermesd defines,
// docs/OBSERVABILITY.md's metric table with the families the layers under
// internal/ and cmd/ declare (each exactly once), and docs/ARCHITECTURE.md's
// package table with the directories under internal/. CI runs it so
// README/docs drift fails the build instead of rotting.
//
// Usage: go run ./tools/doccheck [-root dir]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// docFiles are the documents whose references are checked. Meta files
// (ROADMAP, CHANGES, PAPERS, SNIPPETS, ISSUE) intentionally reference
// external material and are exempt.
var docFiles = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/*.md"}

var (
	// pathRe matches repo-relative path mentions anywhere in a document.
	pathRe = regexp.MustCompile(`(?:\./)?(?:cmd|internal|docs|examples|tools)/[A-Za-z0-9_.\-*/]+`)
	// inlineCode matches `...` spans (flag checks run only inside these).
	inlineCode = regexp.MustCompile("`([^`\n]+)`")
	// linkRe matches markdown link targets.
	linkRe = regexp.MustCompile(`\]\(([^)]+)\)`)
	// flagDefRe extracts flag names from cmd/*/*.go sources.
	flagDefRe = regexp.MustCompile(`flag\.(?:String|Bool|Int|Int64|Uint|Float64|Duration|Func|Var|TextVar)\("([a-z][a-z0-9-]*)"`)
	// flagUseRe extracts -flag mentions from a code span.
	flagUseRe = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)
	// binaryRe decides whether a code span is a command line of one of
	// this repo's binaries (and not, say, curl or go test).
	binaryRe = regexp.MustCompile(`(?:^|[ /])(?:hermes|hermesd|benchrunner|doccheck)\b`)
	// symbolRe strips a Go symbol qualifier: internal/core.System → internal/core.
	symbolRe = regexp.MustCompile(`^(.*?)\.[A-Z].*$`)
	// tableFlagRe matches a README flag-table row's flag cell: | `-memo` | ...
	tableFlagRe = regexp.MustCompile("^\\|\\s*`(-[a-z][a-z0-9-]*)`\\s*\\|")
	// metricDeclRe extracts metric family names from their declarations:
	// the obs.Registry Attach* call that carries a family's name and help
	// text.
	metricDeclRe = regexp.MustCompile(`\.Attach(?:Counter|Gauge|Histogram)\(\s*"(hermes_[a-z0-9_]+)"`)
	// tableMetricRe matches an OBSERVABILITY.md metric-table row's name
	// cell: | `hermes_queries_total` | ...
	tableMetricRe = regexp.MustCompile("^\\|\\s*`(hermes_[a-z0-9_]+)`")
	// tablePackageRe matches an ARCHITECTURE.md package-table row's name
	// cell: | `internal/cim` | ... (`internal/domains/*` is one row).
	tablePackageRe = regexp.MustCompile("^\\|\\s*`(internal/[a-z]+)(?:/\\*)?`\\s*\\|")
)

func main() {
	root := flag.String("root", ".", "repository root")
	flag.Parse()
	problems, err := check(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doccheck:", err)
		os.Exit(2)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println(p)
		}
		fmt.Printf("doccheck: %d broken reference(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: all documentation references resolve")
}

func check(root string) ([]string, error) {
	// Docs may mention any binary's flags, so collect them from every
	// command under cmd/ and tools/.
	flags, _, err := sourceNames(root, flagDefRe, "", "cmd/*/*.go", "tools/*/*.go")
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, pattern := range docFiles {
		matches, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			return nil, err
		}
		for _, file := range matches {
			p, err := checkFile(root, file, flags)
			if err != nil {
				return nil, err
			}
			problems = append(problems, p...)
		}
	}

	// Rows for flags of other binaries are stale too — the table is hermesd's.
	hermesdFlags, _, err := sourceNames(root, flagDefRe, "-", "cmd/hermesd/*.go")
	if err != nil {
		return nil, err
	}
	// Families the layers declare. A family has one owner: a second
	// declaration (a second copy of its help text) fails the check.
	metrics, again, err := sourceNames(root, metricDeclRe, "", "internal/*/*.go", "internal/*/*/*.go", "cmd/*/*.go")
	if err != nil {
		return nil, err
	}
	for _, at := range again {
		problems = append(problems, at+" is a second declaration of that metric family; the layer that observes the event declares it once")
	}
	packages := map[string]bool{}
	dirs, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if d.IsDir() {
			packages["internal/"+d.Name()] = true
		}
	}
	for _, t := range []struct {
		doc     string
		rowRe   *regexp.Regexp
		defined map[string]bool
		stale   string // what a row whose name is not defined is missing
		missing string // what a defined name without a row is
	}{
		{"README.md", tableFlagRe, hermesdFlags, "a flag cmd/hermesd defines", "cmd/hermesd flag"},
		{"docs/OBSERVABILITY.md", tableMetricRe, metrics, "a family some layer declares", "declared metric"},
		{"docs/ARCHITECTURE.md", tablePackageRe, packages, "a directory under internal/", "directory"},
	} {
		p, err := tableSync(root, t.doc, t.rowRe, t.defined, t.stale, t.missing)
		if err != nil {
			return nil, err
		}
		problems = append(problems, p...)
	}
	return problems, nil
}

// sourceNames collects prefix + every name re captures in the non-test Go
// sources the glob patterns match, and lists as "file: name" every capture
// of a name after its first.
func sourceNames(root string, re *regexp.Regexp, prefix string, patterns ...string) (map[string]bool, []string, error) {
	names := map[string]bool{}
	var again []string
	for _, pattern := range patterns {
		srcs, err := filepath.Glob(filepath.Join(root, pattern))
		if err != nil {
			return nil, nil, err
		}
		for _, src := range srcs {
			if strings.HasSuffix(src, "_test.go") {
				continue
			}
			data, err := os.ReadFile(src)
			if err != nil {
				return nil, nil, err
			}
			for _, m := range re.FindAllStringSubmatch(string(data), -1) {
				if names[prefix+m[1]] {
					again = append(again, src+": "+m[1])
				}
				names[prefix+m[1]] = true
			}
		}
	}
	return names, again, nil
}

// tableSync keeps one documentation table and the set of names the tree
// defines in two-way sync: a row (a line rowRe matches, capturing the
// name) that names nothing defined is stale, and a defined name without a
// row is undocumented.
func tableSync(root, doc string, rowRe *regexp.Regexp, defined map[string]bool, stale, missing string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, doc))
	if err != nil {
		return nil, err
	}
	var problems []string
	documented := map[string]bool{}
	for i, line := range strings.Split(string(data), "\n") {
		m := rowRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		documented[m[1]] = true
		if !defined[m[1]] {
			problems = append(problems, fmt.Sprintf("%s:%d: table row %q does not name %s", doc, i+1, m[1], stale))
		}
	}
	for name := range defined {
		if !documented[name] {
			problems = append(problems, fmt.Sprintf("%s: %s %q has no table row", doc, missing, name))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

func checkFile(root, file string, flags map[string]bool) ([]string, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, file)
	if err != nil {
		rel = file
	}
	var problems []string
	report := func(line int, format string, args ...any) {
		problems = append(problems, fmt.Sprintf("%s:%d: %s", rel, line, fmt.Sprintf(format, args...)))
	}

	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		n := i + 1
		// Path mentions, anywhere on the line (prose, tables, diagrams).
		for _, tok := range pathRe.FindAllString(line, -1) {
			if !pathExists(root, tok) {
				report(n, "path %q does not exist", tok)
			}
		}
		// Markdown link targets (relative only).
		for _, m := range linkRe.FindAllStringSubmatch(line, -1) {
			target := strings.SplitN(m[1], "#", 2)[0]
			if target == "" || strings.Contains(target, "://") {
				continue
			}
			if !pathExists(root, target) && !pathExists(filepath.Dir(file), target) {
				report(n, "link target %q does not exist", target)
			}
		}
		// Flag mentions inside code spans attributed to our binaries.
		for _, m := range inlineCode.FindAllStringSubmatch(line, -1) {
			span := m[1]
			if bare := strings.TrimPrefix(span, "-"); span != bare &&
				flagUseRe.MatchString(" "+span) && !strings.ContainsAny(span, " \t") {
				if !flags[bare] {
					report(n, "flag %q is not defined by any command", span)
				}
				continue
			}
			if !binaryRe.MatchString(span) || strings.Contains(span, "go test") {
				continue
			}
			for _, fm := range flagUseRe.FindAllStringSubmatch(span, -1) {
				if !flags[fm[1]] {
					report(n, "flag %q (in %q) is not defined by any command", "-"+fm[1], span)
				}
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// pathExists reports whether a documented path resolves in the tree,
// tolerating the forms docs use: a trailing glob (`internal/domains/*`),
// a Go symbol qualifier (`internal/core.System`), and trailing sentence
// punctuation picked up by the matcher.
func pathExists(root, tok string) bool {
	tok = strings.TrimPrefix(tok, "./")
	tok = strings.TrimRight(tok, ".,;:")
	tok = strings.TrimSuffix(tok, "/*")
	tok = strings.TrimSuffix(tok, "/")
	if tok == "" {
		return false
	}
	if _, err := os.Stat(filepath.Join(root, tok)); err == nil {
		return true
	}
	if m := symbolRe.FindStringSubmatch(tok); m != nil {
		if _, err := os.Stat(filepath.Join(root, m[1])); err == nil {
			return true
		}
	}
	return false
}
