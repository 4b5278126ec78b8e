// Command hermes is an interactive mediator shell: it loads a mediator
// program (rules + invariants), connects to source domains (a built-in
// simulated federation by default, or a hermesd server), optimizes each
// query with the statistics-cache-driven optimizer, and executes the
// winning plan through the cache and invariant manager.
//
// Usage:
//
//	hermes                         # REPL over the built-in federation
//	hermes -query "?- actors(A)." # one-shot query
//	hermes -program my.hql        # load additional rules/invariants
//	hermes -connect host:7117     # use domains hosted by hermesd
//	hermes -explain               # candidate plans, then the executed
//	                              # query's span tree (est vs actual)
//
// In the REPL, end statements with '.'; queries start with '?-'. Other
// statements are added to the program (rules and invariants). Commands:
// \plans <query>, \stats, \cache, \quit.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hermes/internal/atomicfile"
	"hermes/internal/core"
	"hermes/internal/domains/avis"
	"hermes/internal/domains/relation"
	"hermes/internal/engine"
	"hermes/internal/netsim"
	"hermes/internal/obs"
	"hermes/internal/remote"
	"hermes/internal/resilience"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

func main() {
	programPath := flag.String("program", "", "mediator program file to load")
	query := flag.String("query", "", "one-shot query (REPL otherwise)")
	connect := flag.String("connect", "", "hermesd address; replaces the built-in simulated federation")
	explain := flag.Bool("explain", false, "print all candidate plans with their estimated costs, then the executed query's span tree")
	interactive := flag.Bool("interactive", false, "rank plans by time to first answer")
	limit := flag.Int("limit", 0, "stop after N answers (0 = all)")
	trace := flag.Bool("trace", false, "print every domain call with how it was served")
	flag.Parse()

	sys, err := newSystem(*connect)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hermes:", err)
		os.Exit(1)
	}
	if err := sys.LoadProgram(builtinProgram); err != nil {
		fmt.Fprintln(os.Stderr, "hermes: builtin program:", err)
		os.Exit(1)
	}
	if *programPath != "" {
		src, err := os.ReadFile(*programPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hermes:", err)
			os.Exit(1)
		}
		if err := sys.LoadProgram(string(src)); err != nil {
			fmt.Fprintln(os.Stderr, "hermes:", err)
			os.Exit(1)
		}
	}
	sh := &shell{sys: sys, explain: *explain, interactive: *interactive, limit: *limit, trace: *trace}
	if *query != "" {
		if err := sh.runQuery(*query); err != nil {
			fmt.Fprintln(os.Stderr, "hermes:", err)
			os.Exit(1)
		}
		return
	}
	sh.repl()
}

// builtinProgram gives the shell something to query out of the box.
const builtinProgram = `
	actors(Actor) :- in(Actor, avis:actors('rope')).
	objects_between(First, Last, Object) :-
	    in(Object, avis:frames_to_objects('rope', First, Last)).
	plays(Actor, Role) :-
	    in(P, ingres:all('cast')), =(P.name, Actor), =(P.role, Role).

	% Invariants: semantic knowledge for the cache.
	true => avis:frames_to_objects(V, F, L) = avis:objects_in_range(V, F, L).
	F1 <= G1 & G2 <= F2 => avis:frames_to_objects(V, F1, F2) >= avis:frames_to_objects(V, G1, G2).
`

// newSystem builds the shell's mediator over either the domains a hermesd
// at connect hosts or the built-in simulated federation. The clock is
// chosen before construction: the system hands it to the DCSM (record
// stamps) as it is built, so it cannot be swapped afterwards.
func newSystem(connect string) (*core.System, error) {
	opts := core.Options{Obs: obs.NewObserver()}
	if connect != "" {
		// Real distribution: wall-clock timing, and the retry, breaker and
		// mid-stream resume a remote source needs.
		opts.Clock = vclock.NewWall()
		pol := resilience.DefaultPolicy()
		opts.Resilience = &pol
	}
	sys := core.NewSystem(opts)
	return sys, setupDomains(sys, connect)
}

// setupDomains registers either remote domains from hermesd or the
// built-in simulated federation.
func setupDomains(sys *core.System, connect string) error {
	if connect != "" {
		names, err := remote.DiscoverDomains(connect, 5*time.Second)
		if err != nil {
			return fmt.Errorf("discover %s: %w", connect, err)
		}
		for _, n := range names {
			sys.Register(remote.NewClient(connect, n))
			fmt.Printf("connected remote domain %q at %s\n", n, connect)
		}
		return nil
	}
	// Built-in simulated federation: AVIS across the simulated WAN, the
	// relational source local. Reported times are simulated milliseconds.
	store := avis.New("avis")
	avis.LoadRope(store)
	rel := relation.New("ingres")
	cast := rel.MustCreateTable(relation.Schema{Name: "cast", Cols: []relation.Column{
		{Name: "name", Type: relation.TString},
		{Name: "role", Type: relation.TString},
	}})
	for _, c := range avis.RopeCast {
		cast.MustInsert(term.Str(c.Actor), term.Str(c.Role))
	}
	sys.Register(netsim.Wrap(store, netsim.USAEast))
	sys.Register(netsim.Wrap(rel, netsim.Local))
	fmt.Println("built-in federation: avis @ usa-east (simulated), ingres local")
	return nil
}

type shell struct {
	sys         *core.System
	explain     bool
	interactive bool
	limit       int
	trace       bool // -trace: list every domain call after the answers
}

func (sh *shell) repl() {
	fmt.Println(`hermes mediator shell — end statements with '.', queries start with '?-'.`)
	fmt.Println(`commands: \plans <query>  \stats  \cache  \save <prefix>  \load <prefix>  \quit`)
	in := bufio.NewScanner(os.Stdin)
	var buf strings.Builder
	prompt := func() { fmt.Print("hermes> ") }
	prompt()
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		switch {
		case trimmed == `\quit` || trimmed == `\q`:
			return
		case trimmed == `\stats`:
			sh.printStats()
			prompt()
			continue
		case trimmed == `\cache`:
			sh.printCache()
			prompt()
			continue
		case strings.HasPrefix(trimmed, `\plans `):
			if err := sh.printPlans(strings.TrimPrefix(trimmed, `\plans `)); err != nil {
				fmt.Println("error:", err)
			}
			prompt()
			continue
		case strings.HasPrefix(trimmed, `\save `):
			if err := sh.saveState(strings.TrimSpace(strings.TrimPrefix(trimmed, `\save `))); err != nil {
				fmt.Println("error:", err)
			}
			prompt()
			continue
		case strings.HasPrefix(trimmed, `\load `):
			if err := sh.loadState(strings.TrimSpace(strings.TrimPrefix(trimmed, `\load `))); err != nil {
				fmt.Println("error:", err)
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.HasSuffix(trimmed, ".") {
			fmt.Print("   ...> ")
			continue
		}
		stmt := buf.String()
		buf.Reset()
		if err := sh.execute(stmt); err != nil {
			fmt.Println("error:", err)
		}
		prompt()
	}
}

func (sh *shell) execute(stmt string) error {
	if strings.HasPrefix(strings.TrimSpace(stmt), "?-") {
		return sh.runQuery(stmt)
	}
	return sh.sys.LoadProgram(stmt)
}

func (sh *shell) runQuery(q string) error {
	if sh.explain {
		if err := sh.printPlans(q); err != nil {
			return err
		}
		// Trace the whole pipeline so the span tree below shows the
		// rewrite, the plan choice, and every call's est vs actual.
		cur, err := sh.sys.QueryTraced(q, sh.interactive)
		if err != nil {
			return err
		}
		if err := sh.drain(cur); err != nil {
			return err
		}
		fmt.Println("query trace (est vs actual):")
		fmt.Print(indent(obs.Explain(cur.Span().Snapshot())))
		return nil
	}
	plan, cv, err := sh.sys.Optimize(q, sh.interactive)
	if err != nil {
		return err
	}
	fmt.Printf("chosen plan (estimated %s):\n%s\n", cv, indent(plan.String()))
	cur, err := sh.sys.Execute(plan)
	if err != nil {
		return err
	}
	return sh.drain(cur)
}

// drain pulls the cursor (respecting -limit) and prints answers and
// timings.
func (sh *shell) drain(cur *engine.Cursor) error {
	var answers []engine.Answer
	var metrics engine.Metrics
	var err error
	if sh.limit > 0 {
		answers, metrics, err = engine.CollectFirst(cur, sh.limit)
	} else {
		answers, metrics, err = engine.CollectAll(cur)
	}
	if err != nil {
		return err
	}
	for _, a := range answers {
		fmt.Println(" ", a)
	}
	fmt.Println(metrics.Summary())
	if sh.trace {
		printCalls(cur.Span().Snapshot())
	}
	return nil
}

// printCalls lists the domain calls under a finished query span, each with
// its issue time and the tags saying how it was served (route, cim outcome,
// serving entry, degraded, breaker, error).
func printCalls(d obs.SpanData) {
	if strings.HasPrefix(d.Name, "call ") {
		served := ""
		for _, k := range []string{"route", "cim", "serving", "degraded", "breaker", "error"} {
			if v, ok := d.Tags.Lookup(k); ok {
				served += " " + k + "=" + v
			}
		}
		fmt.Printf("  [trace %6dms] %s%s\n", d.Start.Milliseconds(), strings.TrimPrefix(d.Name, "call "), served)
	}
	for _, c := range d.Children {
		printCalls(c)
	}
}

func (sh *shell) printPlans(q string) error {
	plans, err := sh.sys.Plans(q)
	if err != nil {
		return err
	}
	for i, p := range plans {
		cv, err := sh.sys.PlanCost(p)
		costStr := "no estimate"
		if err == nil {
			costStr = cv.String()
		}
		fmt.Printf("plan %d %s:\n%s", i+1, costStr, indent(p.String()))
	}
	return nil
}

func (sh *shell) printStats() {
	st := sh.sys.DCSM.Storage()
	fmt.Printf("DCSM: %d raw records, %d summary tables (%d rows)\n",
		st.RawRecords, st.SummaryTables, st.SummaryRows)
	if sh.sys.CIM != nil {
		cs := sh.sys.CIM.Stats()
		fmt.Printf("CIM: %d exact hits, %d equality hits, %d partial hits, %d misses, %d entries (%d bytes)\n",
			cs.ExactHits, cs.EqualityHits, cs.PartialHits, cs.Misses, sh.sys.CIM.Len(), sh.sys.CIM.Bytes())
	}
}

func (sh *shell) printCache() {
	if sh.sys.CIM == nil {
		fmt.Println("CIM disabled")
		return
	}
	fmt.Printf("%d cached calls, %d bytes\n", sh.sys.CIM.Len(), sh.sys.CIM.Bytes())
}

// saveState writes <prefix>.cache.json and <prefix>.stats.json, each
// replaced atomically so a failed save keeps the previous snapshot.
func (sh *shell) saveState(prefix string) error {
	if err := atomicfile.Write(prefix+".cache.json", func(w io.Writer) error {
		return sh.sys.SaveState(w, nil)
	}); err != nil {
		return err
	}
	if err := atomicfile.Write(prefix+".stats.json", func(w io.Writer) error {
		return sh.sys.SaveState(nil, w)
	}); err != nil {
		return err
	}
	fmt.Printf("saved %s.cache.json and %s.stats.json\n", prefix, prefix)
	return nil
}

// loadState restores state written by \save.
func (sh *shell) loadState(prefix string) error {
	cache, err := os.Open(prefix + ".cache.json")
	if err != nil {
		return err
	}
	defer cache.Close()
	stats, err := os.Open(prefix + ".stats.json")
	if err != nil {
		return err
	}
	defer stats.Close()
	if err := sh.sys.LoadState(cache, stats); err != nil {
		return err
	}
	fmt.Println("state restored; cached calls:", sh.sys.CIM.Len())
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n") + "\n"
}
