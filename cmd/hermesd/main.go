// Command hermesd hosts source domains over TCP for genuinely distributed
// operation: the mediator (cmd/hermes or any program using internal/remote)
// connects with remote.NewClient and sees each hosted domain as a local
// one.
//
// The served federation is the experiment testbed's dataset: the AVIS
// video store (with "The Rope"), the INGRES-style relational database
// (cast, crew, inventory), a spatial point store, the terrain path
// planner, a face gallery, and a flat-file store.
//
// Besides the domain protocol, hermesd serves an observability HTTP
// endpoint (-http): GET /metrics is a Prometheus text exposition, GET
// /debug/queries the newest 64 flight records as EXPLAIN trees, GET /debug/calibration
// the DCSM cost-model calibration table (worst-estimated functions first,
// joined with their statistics footprint), GET /debug/cim the cache
// savings ledger, GET /debug/invariants the invariant discrimination
// index (buckets joined with per-invariant savings), GET /debug/memo the
// rule-level memo cache (stats plus
// most recently used entries), GET /debug/flightrecorder the
// flight-recorder ring as JSONL, and GET /query?q=... runs a query
// through an embedded mediator
// over the hosted domains and returns its answers plus EXPLAIN span tree.
// With -pprof the Go profiling handlers appear under /debug/pprof/.
//
// The flight recorder keeps the last finished query span trees in a
// bounded ring; -slow-query-ms skips queries that finished faster than
// the threshold (0 records every query), so /debug/queries then lists
// recent slow queries. SIGQUIT dumps the ring to the -flight-snapshot
// path without stopping the server.
//
// Usage:
//
//	hermesd -addr :7117 -http :7118 -slow-query-ms 250 -flight-snapshot flight.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hermes/internal/admission"
	"hermes/internal/atomicfile"
	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/domains/avis"
	"hermes/internal/domains/face"
	"hermes/internal/domains/flatfile"
	"hermes/internal/domains/relation"
	"hermes/internal/domains/spatial"
	"hermes/internal/domains/terrain"
	"hermes/internal/engine"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/remote"
	"hermes/internal/resilience"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

func main() {
	addr := flag.String("addr", ":7117", "listen address")
	httpAddr := flag.String("http", ":7118", "observability HTTP address (/metrics, /debug/queries, /query); empty disables")
	parallelism := flag.Int("parallelism", 0, "intra-query parallelism for the embedded mediator (<=0 = GOMAXPROCS, 1 = sequential)")
	maxInflight := flag.Int("max-inflight", 0, "server-wide bound on in-flight source calls across all /query sessions (0 = unbounded)")
	shedPolicy := flag.String("shed-policy", "wait", "behaviour at a saturated admission pool: wait (queue FIFO) or shed (503 + Retry-After)")
	slowQueryMS := flag.Int("slow-query-ms", 0, "flight recorder threshold: skip queries that finished faster than this many milliseconds (0 = record every query)")
	pprofOn := flag.Bool("pprof", false, "serve Go profiling handlers under /debug/pprof/ on the observability address")
	flightSnapshot := flag.String("flight-snapshot", "", "file to dump the flight-recorder ring to (JSONL) on SIGQUIT; empty disables")
	memoDefaults := memo.DefaultConfig()
	memoOn := flag.Bool("memo", true, "enable the rule-level memo cache for intermediate IDB results")
	memoEntries := flag.Int("memo-entries", memoDefaults.MaxEntries, "memo cache entry budget")
	memoBytes := flag.Int("memo-bytes", memoDefaults.MaxBytes, "memo cache byte budget")
	nodeName := flag.String("node-name", "", "name tagging this node's spans in federated traces and /debug/cluster (default: the hostname)")
	traceMaxDepth := flag.Int("trace-max-depth", remote.DefaultTraceMaxDepth, "federated-tracing hop-depth limit: calls arriving deeper than this are served without a trace subtree (cycle guard; 0 disables tracing)")
	traceMaxBytes := flag.Int("trace-max-subtree-bytes", remote.DefaultTraceMaxSubtreeBytes, "byte budget for the span subtree shipped per served call; deeper levels are pruned to fit and the root is tagged truncated=1 (0 = unlimited)")
	peerTimeout := flag.Duration("cluster-peer-timeout", 2*time.Second, "per-peer timeout for /debug/cluster rollup fan-out; slower peers are marked degraded")
	var mountSpecs []mountSpec
	flag.Func("mount", "mount a domain served by another hermesd, as name=host:port (repeatable); makes this node a mediator over that mediator", func(v string) error {
		spec, err := parseMount(v)
		if err != nil {
			return err
		}
		mountSpecs = append(mountSpecs, spec)
		return nil
	})
	flag.Parse()

	shed, err := admission.ParsePolicy(*shedPolicy)
	if err != nil {
		log.Fatal(err)
	}

	node := *nodeName
	if node == "" {
		if h, err := os.Hostname(); err == nil && h != "" {
			node = h
		} else {
			node = "hermesd"
		}
	}

	doms := BuildDomains()
	reg := domain.NewRegistry()
	for _, d := range doms {
		reg.Register(d)
		log.Printf("hermesd: serving domain %q (%d functions)", d.Name(), len(d.Functions()))
	}
	pol := resilience.DefaultPolicy()
	mounts := buildMounts(mountSpecs)
	for _, m := range mounts {
		// The re-served TCP path gets its own retry/breaker wrapper; the
		// embedded mediator wraps the raw client itself in sys.Register,
		// threading breaker, retries, and observability through the mount
		// exactly as for a local source.
		reg.Register(resilience.Wrap(m, pol))
		doms = append(doms, m)
		log.Printf("hermesd: mounted remote mediator domain %q from %s", m.Name(), m.Addr())
	}
	var obsSys *core.System
	if *httpAddr != "" {
		oo := obsOptions{
			Core: core.Options{
				// Real mounts run under real time; the embedded mediator must
				// time spans on the wall clock or stitched cross-hop traces
				// would compare virtual readings against wall durations.
				Clock:            vclock.NewWall(),
				Parallelism:      *parallelism,
				MaxInflightCalls: *maxInflight,
				ShedPolicy:       shed,
				// Calibration-inflated costing at the setting every
				// configuration in the tree uses: p90 q-error, ×1.5 for
				// functions never measured.
				CalInflateQuantile: 0.9,
				ColdStartInflation: 1.5,
			},
			SlowQueryMS: *slowQueryMS,
			Pprof:       *pprofOn,
			NodeName:    node,
			Mounts:      mounts,
			PeerTimeout: *peerTimeout,
		}
		if *memoOn {
			mcfg := memoDefaults
			mcfg.MaxEntries = *memoEntries
			mcfg.MaxBytes = *memoBytes
			oo.Core.Memo = &mcfg
		}
		h, sys, err := newObsHandler(doms, oo)
		if err != nil {
			log.Fatal(err)
		}
		obsSys = sys
		if *flightSnapshot != "" {
			snapshotOnQuit(sys.Obs, *flightSnapshot)
		}
		go func() {
			log.Printf("hermesd: observability HTTP on %s", *httpAddr)
			log.Fatal(http.ListenAndServe(*httpAddr, h))
		}()
	}
	srv := newServer(reg, node, *traceMaxDepth, *traceMaxBytes, obsSys)
	log.Printf("hermesd: listening on %s", *addr)
	log.Fatal(srv.ListenAndServe(*addr))
}

// newServer builds the TCP side over reg. With an embedded mediator (sys
// non-nil) the server reports into its observer and serves its debug
// rollup to peers.
func newServer(reg *domain.Registry, node string, traceMaxDepth, traceMaxBytes int, sys *core.System) *remote.Server {
	srv := remote.NewServer(reg)
	srv.NodeName = node
	srv.TraceMaxDepth = traceMaxDepth
	srv.TraceMaxSubtreeBytes = traceMaxBytes
	if sys != nil {
		srv.SetObserver(sys.Obs)
		srv.SetDebugInfo(func() ([]byte, error) {
			return selfInfoJSON(node, sys.Obs, sys)
		})
	}
	return srv
}

// mountSpec names one remote mediator domain to mount: the -mount flag's
// parsed name=host:port form.
type mountSpec struct {
	name string
	addr string
}

// parseMount parses one -mount value.
func parseMount(v string) (mountSpec, error) {
	name, addr, ok := strings.Cut(v, "=")
	if !ok || name == "" || addr == "" {
		return mountSpec{}, fmt.Errorf("-mount wants name=host:port, got %q", v)
	}
	return mountSpec{name: name, addr: addr}, nil
}

// buildMounts creates a remote client per mounted domain. Nothing is
// dialed here: a mount whose upstream hermesd is down serves
// ErrUnavailable (retryable, breaker-guarded) until it comes back, the
// same degraded mode as any unreachable source.
func buildMounts(specs []mountSpec) []*remote.Client {
	out := make([]*remote.Client, 0, len(specs))
	for _, s := range specs {
		out = append(out, remote.NewClient(s.addr, s.name))
	}
	return out
}

// writeFlightSnapshot dumps the flight-recorder ring to path as JSONL,
// oldest record first, replacing any previous dump atomically.
func writeFlightSnapshot(o *obs.Observer, path string) error {
	return atomicfile.Write(path, o.Flight.WriteJSONL)
}

// snapshotOnQuit dumps the flight recorder to path on every SIGQUIT, the
// classic "what was this server just doing" trigger, without stopping the
// process.
func snapshotOnQuit(o *obs.Observer, path string) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGQUIT)
	go func() {
		for range ch {
			if err := writeFlightSnapshot(o, path); err != nil {
				log.Printf("hermesd: flight snapshot: %v", err)
			} else {
				log.Printf("hermesd: flight snapshot written to %s", path)
			}
		}
	}()
}

// serverProgram gives the embedded mediator rules over the hosted
// federation, so /query works out of the box.
const serverProgram = `
	actors(Actor) :- in(Actor, avis:actors('rope')).
	objects_between(First, Last, Object) :-
	    in(Object, avis:frames_to_objects('rope', First, Last)).

	true => avis:frames_to_objects(V, F, L) = avis:objects_in_range(V, F, L).
	F1 <= G1 & G2 <= F2 => avis:frames_to_objects(V, F1, F2) >= avis:frames_to_objects(V, G1, G2).
`

// obsOptions configures the observability endpoint and the embedded
// mediator behind it.
type obsOptions struct {
	// Core is the embedded mediator's configuration (-parallelism,
	// -max-inflight, -shed-policy, -memo*, and the fixed cost inflation);
	// newObsHandler adds the observer and the resilience policy. A nil
	// Clock keeps the deterministic virtual clock (tests); main passes a
	// wall clock so span times are comparable with remote subtree times.
	Core        core.Options
	SlowQueryMS int              // -slow-query-ms
	Pprof       bool             // -pprof
	NodeName    string           // -node-name (resolved)
	Mounts      []*remote.Client // -mount clients, for /debug/cluster fan-out
	PeerTimeout time.Duration    // -cluster-peer-timeout
}

// newObsHandler builds the observability endpoint: an embedded mediator
// (CIM + DCSM + resilient wrappers, all reporting into one observer) over
// the same domain instances the TCP server hosts, plus the obs HTTP
// handler for its metrics and query spans. The System is returned for
// tests that need to hold admission lanes around HTTP requests.
//
// Each /query request runs as its own admitted session on a fork of the
// system clock, so concurrent requests proceed in parallel while the
// admission pool (when -max-inflight is set) bounds their total source
// concurrency; a saturated pool under -shed-policy shed answers 503 with
// Retry-After before any source sees the query.
func newObsHandler(doms []domain.Domain, opts obsOptions) (http.Handler, *core.System, error) {
	o := obs.NewObserver()
	o.Flight.SetThreshold(time.Duration(opts.SlowQueryMS) * time.Millisecond)
	pol := resilience.DefaultPolicy()
	opts.Core.Obs, opts.Core.Resilience = o, &pol
	sys := core.NewSystem(opts.Core)
	for _, d := range doms {
		sys.Register(d)
	}
	if err := sys.LoadProgram(serverProgram); err != nil {
		return nil, nil, err
	}

	mux := http.NewServeMux()
	oh := obs.Handler(o)
	for _, path := range []string{"/metrics", "/debug/queries", "/debug/flightrecorder"} {
		mux.Handle(path, oh)
	}
	mux.Handle("/debug/cim", sys.CIM.DebugHandler())
	mux.Handle("/debug/invariants", sys.CIM.InvariantsHandler())
	if sys.Memo != nil {
		mux.Handle("/debug/memo", sys.Memo.DebugHandler())
	} else {
		mux.HandleFunc("/debug/memo", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "memo disabled (-memo=false)")
		})
	}
	mux.HandleFunc("/debug/calibration", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeCalibration(w, sys)
	})
	mux.HandleFunc("/debug/cluster", clusterHandler(opts.NodeName, o, sys, opts.Mounts, opts.PeerTimeout))
	if opts.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	mux.HandleFunc("/query", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query().Get("q")
		if q == "" {
			http.Error(w, "missing q parameter, e.g. /query?q=?- actors(A).", http.StatusBadRequest)
			return
		}
		ctx, release, err := sys.AdmitCtx(r.Context(), 1)
		if err != nil {
			if domain.IsOverloaded(err) {
				w.Header().Set("Retry-After", "1")
				http.Error(w, err.Error(), http.StatusServiceUnavailable)
				return
			}
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		defer release()
		cur, err := sys.QueryTracedCtx(ctx, q, false)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if opts.NodeName != "" {
			// The origin hop of a federated trace carries its own node= tag,
			// matching the per-hop tags on stitched remote subtrees.
			cur.Span().SetTag("node", opts.NodeName)
		}
		answers, metrics, err := engine.CollectAll(cur)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		for _, a := range answers {
			fmt.Fprintln(w, a)
		}
		fmt.Fprintf(w, "%s\n\n", metrics.Summary())
		fmt.Fprint(w, obs.Explain(cur.Span().Snapshot()))
	})
	return mux, sys, nil
}

// writeCalibration renders the DCSM calibration table: the DCSM's
// per-function q-error distributions (worst-calibrated first) joined with
// each function's statistics footprint, so a badly-estimated function can
// be told apart from a statistics-starved one at a glance.
func writeCalibration(w io.Writer, sys *core.System) {
	rows := sys.DCSM.Calibration().Summary()
	fmt.Fprintln(w, "DCSM calibration, worst-calibrated first (q-error = max(est/actual, actual/est)):")
	if len(rows) == 0 {
		fmt.Fprintln(w, "no calibration samples yet")
		return
	}
	type foot struct{ records, tables int }
	feet := map[string]foot{}
	for _, st := range sys.DCSM.FunctionStats() {
		f := feet[st.Domain+":"+st.Function]
		f.records += st.Records
		f.tables += st.SummaryTables
		feet[st.Domain+":"+st.Function] = f
	}
	fmt.Fprintf(w, "%-28s %8s %10s %10s %10s %10s %8s %7s\n",
		"function", "samples", "med(qTf)", "med(qTa)", "med(qCard)", "p95(qTa)", "records", "tables")
	for _, r := range rows {
		name := r.Domain + ":" + r.Function
		f := feet[name]
		fmt.Fprintf(w, "%-28s %8d %10.2f %10.2f %10.2f %10.2f %8d %7d\n",
			name, r.Samples, r.MedianQTf, r.MedianQTa, r.MedianQCrd, r.P95QTa, f.records, f.tables)
	}
}

// BuildDomains assembles the full demonstration federation.
func BuildDomains() []domain.Domain {
	store := avis.New("avis")
	avis.LoadRope(store)
	avis.Generate(store, "newsreel", 1200, 60, 1944)

	rel := relation.New("ingres")
	cast := rel.MustCreateTable(relation.Schema{Name: "cast", Cols: []relation.Column{
		{Name: "name", Type: relation.TString},
		{Name: "role", Type: relation.TString},
	}})
	for _, c := range avis.RopeCast {
		cast.MustInsert(term.Str(c.Actor), term.Str(c.Role))
	}
	inv := rel.MustCreateTable(relation.Schema{Name: "inventory", Cols: []relation.Column{
		{Name: "item", Type: relation.TString},
		{Name: "loc", Type: relation.TString},
		{Name: "qty", Type: relation.TInt},
	}})
	for _, r := range [][3]any{
		{"h-22 fuel", "depot1", 40},
		{"h-22 fuel", "depot3", 15},
		{"rations", "depot1", 500},
		{"rations", "depot2", 220},
		{"ammo", "depot3", 90},
	} {
		inv.MustInsert(term.Str(r[0].(string)), term.Str(r[1].(string)), term.Int(int64(r[2].(int))))
	}

	spat := spatial.New("spatial")
	var pts []spatial.Point
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			pts = append(pts, spatial.Point{
				ID: fmt.Sprintf("p%02d%02d", i, j),
				X:  float64(i * 11), Y: float64(j * 11),
			})
		}
	}
	spat.MustAddFile("points", pts)

	grid, err := terrain.NewGrid([]string{
		"..........",
		".####.####",
		".#........",
		".#.######.",
		"...#....#.",
		"####.##.#.",
		"....#...#.",
		".##...#.#.",
		".#..###.#.",
		"..........",
	})
	if err != nil {
		log.Fatal(err)
	}
	for name, at := range map[string][2]int{
		"place1": {0, 0}, "depot1": {9, 9}, "depot2": {9, 0}, "depot3": {2, 2},
	} {
		if err := grid.AddLocation(name, at[0], at[1]); err != nil {
			log.Fatal(err)
		}
	}
	planner := terrain.New("terraindb", grid)

	gallery := face.New("faces")
	gallery.Populate(500, 11)

	files := flatfile.New("files")
	files.RegisterContent("news", []string{
		"date|source|headline",
		"1995-03-01|usa today|market rallies on rate cut hopes",
		"1995-03-02|usa today|floods hit the midwest",
		"1995-03-02|ap|senate passes budget bill",
		"1995-03-03|usa today|local team wins championship",
	})

	return []domain.Domain{store, rel, spat, planner, gallery, files}
}
