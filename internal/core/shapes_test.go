package core

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"hermes/internal/domain"
	"hermes/internal/domain/domaintest"
	"hermes/internal/lang"
	"hermes/internal/remote"
	"hermes/internal/rewrite"
	"hermes/internal/term"
	"hermes/internal/workload"
)

// planText renders every candidate plan of a query, in order.
func planText(t *testing.T, sys *System, q string) string {
	t.Helper()
	plans, err := sys.Plans(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	var b strings.Builder
	for _, p := range plans {
		b.WriteString(p.String())
	}
	return b.String()
}

// TestShapeTableInvalidation: each change to what plan enumeration reads —
// a rule loaded, a domain registered that enables selection push-down, a
// domain's CIM routing flipped — changes the plans of the next query of a
// shape already in the table, and the programs compiled for them: the
// query runs the new rule, the new route and the pushed-down selection.
func TestShapeTableInvalidation(t *testing.T) {
	scale := func(k int64) func([]term.Value) ([]term.Value, error) {
		return func(args []term.Value) ([]term.Value, error) {
			return []term.Value{term.Int(k * int64(args[0].(term.Int)))}, nil
		}
	}
	d := domaintest.New("d")
	d.Define("f", domaintest.Func{Arity: 1, Fn: scale(10)})
	d.Define("g", domaintest.Func{Arity: 1, Fn: scale(100)})
	sys := NewSystem(Options{})
	sys.Register(d)
	if err := sys.LoadProgram(`v(X, Y) :- in(Y, d:f(X)).`); err != nil {
		t.Fatal(err)
	}
	if got := planText(t, sys, "?- v(1, Y)."); strings.Contains(got, "d:g") {
		t.Fatalf("plans before the rule is loaded:\n%s", got)
	}
	if got := answerText(t, sys, "?- v(1, Y)."); got != "{Y=10}" {
		t.Fatalf("answers before the rule is loaded: %s", got)
	}
	if err := sys.LoadProgram(`v(X, Y) :- in(Y, d:g(X)).`); err != nil {
		t.Fatal(err)
	}
	if got := planText(t, sys, "?- v(2, Y)."); !strings.Contains(got, "CIM[in(Y, d:g(X))]") {
		t.Fatalf("plans miss the rule loaded since:\n%s", got)
	}
	if got := answerText(t, sys, "?- v(2, Y)."); got != "{Y=200} {Y=20}" {
		t.Fatalf("answers miss the rule loaded since: %s", got)
	}

	sys.RouteThroughCIM("d", false)
	if got := planText(t, sys, "?- v(3, Y)."); strings.Contains(got, "CIM[") {
		t.Fatalf("plans still route d through the CIM:\n%s", got)
	}
	before := sys.CIM.Stats()
	if got := answerText(t, sys, "?- v(3, Y)."); got != "{Y=300} {Y=30}" {
		t.Fatalf("answers after the routing changed: %s", got)
	}
	if after := sys.CIM.Stats(); after != before {
		t.Fatalf("calls still reach the CIM: stats %+v, then %+v", before, after)
	}

	const scan = "?- in(T, e:all('t')) & T.a = %d."
	if got := planText(t, sys, fmt.Sprintf(scan, 1)); strings.Contains(got, "e:equal") {
		t.Fatalf("selection pushed into an unregistered domain:\n%s", got)
	}
	rows := func(args []term.Value) ([]term.Value, error) {
		return []term.Value{term.NewRecord(term.Field{Name: "a", Val: term.Int(2)})}, nil
	}
	e := domaintest.New("e")
	e.Define("all", domaintest.Func{Arity: 1, Fn: rows})
	e.Define("equal", domaintest.Func{Arity: 3, Fn: rows})
	sys.Register(e)
	if got := planText(t, sys, fmt.Sprintf(scan, 2)); !strings.Contains(got, "e:equal('t', 'a', 2)") {
		t.Fatalf("selection not pushed once e is registered:\n%s", got)
	}
	if got := answerText(t, sys, fmt.Sprintf(scan, 2)); got != "{T={a: 2}}" || e.CallCount("equal") != 1 || e.CallCount("all") != 0 {
		t.Fatalf("pushed-down query: answers %s, %d equal and %d all calls; want one equal call", got, e.CallCount("equal"), e.CallCount("all"))
	}
}

// TestShapeAfterListingRecovers: while a mounted peer's function listing
// cannot be read, a selection stays in the mediator, and its shape is not
// kept; once the peer is up, the next query of the shape pushes it down.
func TestShapeAfterListingRecovers(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens until the peer comes up below
	c := remote.NewClient(addr, "rel")
	c.SetDialTimeout(200 * time.Millisecond)
	t.Cleanup(func() { c.Close() })
	sys := NewSystem(Options{})
	sys.Register(c)

	const q = "?- in(P, rel:all('table00')) & P.k = %d."
	if got := planText(t, sys, fmt.Sprintf(q, 1)); strings.Contains(got, "rel:equal") {
		t.Fatalf("selection pushed into a peer whose listing is unavailable:\n%s", got)
	}

	l, err = net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot listen on %s again: %v", addr, err)
	}
	_, rel := workload.Federation(workload.DefaultFederation())
	reg := domain.NewRegistry()
	reg.Register(rel)
	srv := remote.NewServer(reg)
	srv.Logf = func(string, ...any) {}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(l)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-served
	})
	if got := planText(t, sys, fmt.Sprintf(q, 2)); !strings.Contains(got, "rel:equal('table00', 'k', 2)") {
		t.Fatalf("selection not pushed once the listing is back:\n%s", got)
	}
}

// TestShapeTableConcurrent: goroutines asking queries of one shape with
// their own constants each get a fresh rewriter's plans for their query
// and their own answers (run under -race in CI).
func TestShapeTableConcurrent(t *testing.T) {
	sys, _, _ := buildM1(t)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				a, want := "a", 3
				if (g+i)%2 == 1 {
					a, want = "c", 0
				}
				q := fmt.Sprintf("?- m('%s', C).", a)
				pq, err := lang.ParseQuery(q)
				if err != nil {
					errs <- err
					return
				}
				got, err := sys.PlansFor(pq)
				if err != nil {
					errs <- err
					return
				}
				fresh, err := rewrite.New(sys.Program, sys.rewriteCfg, sys.Registry).Plans(pq)
				if err != nil || len(fresh) != len(got) {
					errs <- fmt.Errorf("%s: %d plans, fresh %d (%v)", q, len(got), len(fresh), err)
					return
				}
				for k := range got {
					if got[k].String() != fresh[k].String() || got[k].Fingerprint() != fresh[k].Fingerprint() {
						errs <- fmt.Errorf("%s: plan %d:\n%s\nfresh:\n%s", q, k+1, got[k], fresh[k])
						return
					}
				}
				answers, _, err := sys.QueryAll(q)
				if err != nil || len(answers) != want {
					errs <- fmt.Errorf("%s: %d answers, want %d (%v)", q, len(answers), want, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestPreparedShapeAllocsPer: once a query's shape is in the table, the
// plans of another query of the shape cost a fixed handful of objects,
// however many rule sections the plans carry: one for a one-candidate
// shape.
func TestPreparedShapeAllocsPer(t *testing.T) {
	perHit := func(depth int) float64 {
		// c0 calls c1, ... c<depth> calls the source: depth+1 rule sections.
		var prog strings.Builder
		for i := 0; i < depth; i++ {
			fmt.Fprintf(&prog, "c%d(X, Y) :- c%d(X, Y).\n", i, i+1)
		}
		fmt.Fprintf(&prog, "c%d(X, Y) :- in(Y, d:f(X)).\n", depth)
		sys := NewSystem(Options{})
		if err := sys.LoadProgram(prog.String()); err != nil {
			t.Fatal(err)
		}
		first, second := mustParseQuery(t, "?- c0(1, Y)."), mustParseQuery(t, "?- c0(2, Y).")
		plans, err := sys.PlansFor(first)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(plans[0].Rules); n != depth+1 {
			t.Fatalf("depth %d: %d rule sections", depth, n)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := sys.PlansFor(second); err != nil {
				t.Fatal(err)
			}
		})
	}
	shallow, deep := perHit(1), perHit(12)
	// One candidate: its query rule, plan and plan list in one object.
	if shallow > 1 || deep != shallow {
		t.Errorf("a shape hit allocates %.0f objects with 2 rule sections and %.0f with 13, want at most 1 either way", shallow, deep)
	}
}

func mustParseQuery(t *testing.T, src string) *lang.Query {
	t.Helper()
	q, err := lang.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	return q
}
