package experiments

import (
	"fmt"
	"strings"
	"time"

	"hermes/internal/domain"
	"hermes/internal/netsim"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// Fig5Row is one measurement of the Figure 5 experiment: executing remote
// calls with caching and/or invariants.
type Fig5Row struct {
	Query  string
	Config string
	Site   string
	TFirst time.Duration
	TAll   time.Duration
	Tuples int
	Bytes  int
	// FromCache is how many answers the cache contributed (the
	// paper's "(22 bytes from partial inv)" annotations).
	FromCache int
}

// fig5Query is one of the four Figure 5 queries with its priming recipes.
type fig5Query struct {
	name  string
	query string
	// equalityPrime lists the different-but-equivalent calls the equality
	// invariant maps the query's calls onto.
	equalityPrime []domain.Call
	// partialPrime lists the sub-range calls whose cached answers are a
	// sound partial answer via the containment invariants.
	partialPrime []domain.Call
}

func avisCall(fn string, args ...term.Value) domain.Call {
	return domain.Call{Domain: "avis", Function: fn, Args: args}
}

func fig5Queries() []fig5Query {
	rope := term.Str("rope")
	return []fig5Query{
		{
			name:  "Find all actors in 'The Rope'",
			query: "?- actors(Actor).",
			equalityPrime: []domain.Call{
				avisCall("cast_members", rope),
			},
			partialPrime: []domain.Call{
				avisCall("actors_in_range", rope, term.Int(30), term.Int(130)),
			},
		},
		{
			name:  "Find actors and the frames they appear in (4..127)",
			query: "?- query2(4, 127, Object, Frames, Actor).",
			equalityPrime: []domain.Call{
				avisCall("objects_in_range", rope, term.Int(4), term.Int(127)),
			},
			partialPrime: []domain.Call{
				avisCall("frames_to_objects", rope, term.Int(20), term.Int(100)),
			},
		},
		{
			name:  "Find the objects between frames 4 and 47",
			query: "?- in(Object, avis:frames_to_objects('rope', 4, 47)).",
			equalityPrime: []domain.Call{
				avisCall("objects_in_range", rope, term.Int(4), term.Int(47)),
			},
			partialPrime: []domain.Call{
				avisCall("frames_to_objects", rope, term.Int(18), term.Int(47)),
			},
		},
		{
			name:  "Find the objects between frames 4 and 127",
			query: "?- in(Object, avis:frames_to_objects('rope', 4, 127)).",
			equalityPrime: []domain.Call{
				avisCall("objects_in_range", rope, term.Int(4), term.Int(127)),
			},
			partialPrime: []domain.Call{
				avisCall("frames_to_objects", rope, term.Int(4), term.Int(90)),
			},
		},
	}
}

// fig5Config is one cache configuration column of Figure 5.
type fig5Config struct {
	name       string
	disableCIM bool
	invariants bool
	primeExact bool // run the query once untimed (the "cache only" column)
	primeKind  string
}

func fig5Configs() []fig5Config {
	return []fig5Config{
		{name: "no cache, no invar.", disableCIM: true},
		{name: "cache only", primeExact: true},
		{name: "cache + equality inv.", invariants: true, primeKind: "equality"},
		{name: "cache + partial inv.", invariants: true, primeKind: "partial"},
	}
}

// Figure5 runs the full experiment over both sites and returns the rows in
// the paper's order (query-major, configuration-minor).
func Figure5() ([]Fig5Row, error) {
	var rows []Fig5Row
	for _, q := range fig5Queries() {
		for _, site := range []netsim.Profile{SiteUSA, SiteItaly} {
			for _, cfg := range fig5Configs() {
				row, err := runFig5Cell(q, cfg, site)
				if err != nil {
					return nil, fmt.Errorf("figure 5 [%s / %s / %s]: %w", q.name, cfg.name, site.Name, err)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func runFig5Cell(q fig5Query, cfg fig5Config, site netsim.Profile) (Fig5Row, error) {
	tb, err := NewTestbed(TestbedOptions{
		Site:           site,
		DisableCIM:     cfg.disableCIM,
		WithInvariants: cfg.invariants,
		RouteViaCIM:    !cfg.disableCIM,
	})
	if err != nil {
		return Fig5Row{}, err
	}
	// Priming (untimed: it models work done by earlier queries).
	switch {
	case cfg.primeExact:
		plan, err := originalOrderPlan(tb.Sys, q.query)
		if err != nil {
			return Fig5Row{}, err
		}
		if _, _, err := runPlan(tb.Sys, plan); err != nil {
			return Fig5Row{}, err
		}
	case cfg.primeKind == "equality":
		if err := tb.Sys.PrimeCache(q.equalityPrime); err != nil {
			return Fig5Row{}, err
		}
	case cfg.primeKind == "partial":
		if err := tb.Sys.PrimeCache(q.partialPrime); err != nil {
			return Fig5Row{}, err
		}
	}
	var before int
	if tb.Sys.CIM != nil {
		before = tb.Sys.CIM.Stats().ServedFromCache
	}
	plan, err := originalOrderPlan(tb.Sys, q.query)
	if err != nil {
		return Fig5Row{}, err
	}
	// Timed run on a fresh clock and a fresh network session.
	tb.ResetConnections()
	tb.Sys.Clock = vclock.NewVirtual(0)
	answers, metrics, err := runPlan(tb.Sys, plan)
	if err != nil {
		return Fig5Row{}, err
	}
	row := Fig5Row{
		Query:  q.name,
		Config: cfg.name,
		Site:   site.Name,
		TFirst: metrics.TFirst,
		TAll:   metrics.TAll,
		Tuples: len(answers),
		Bytes:  metrics.Bytes,
	}
	if tb.Sys.CIM != nil {
		row.FromCache = tb.Sys.CIM.Stats().ServedFromCache - before
	}
	return row, nil
}

// FormatFigure5 renders the rows the way the paper's Figure 5 reads.
func FormatFigure5(rows []Fig5Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-52s %-22s %-8s %10s %10s %8s %8s %s\n",
		"Query", "Type", "Site", "T_first", "T_all", "Tuples", "Bytes", "FromCache")
	last := ""
	for _, r := range rows {
		q := r.Query
		if q == last {
			q = ""
		} else {
			last = r.Query
			b.WriteString(strings.Repeat("-", 140))
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%-52s %-22s %-8s %8sms %8sms %8d %8d %d\n",
			q, r.Config, r.Site,
			vclock.Millis(r.TFirst), vclock.Millis(r.TAll), r.Tuples, r.Bytes, r.FromCache)
	}
	return b.String()
}
