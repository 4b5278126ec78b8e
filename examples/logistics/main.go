// Logistics: the paper's motivating routetosupplies mediator (§2) — find a
// place holding a supply item in the INGRES inventory, then plan a route to
// it with the terrain path planner. Demonstrates mediation across a
// relational database and a "non-traditional" computational source with no
// cost model. Run with:
//
//	go run ./examples/logistics
package main

import (
	"fmt"
	"log"

	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/domains/relation"
	"hermes/internal/domains/terrain"
	"hermes/internal/term"
)

func main() {
	// INGRES: the inventory relation.
	ingres := relation.New("ingres")
	inv := ingres.MustCreateTable(relation.Schema{Name: "inventory", Cols: []relation.Column{
		{Name: "item", Type: relation.TString},
		{Name: "loc", Type: relation.TString},
		{Name: "qty", Type: relation.TInt},
	}})
	for _, r := range []struct {
		item, loc string
		qty       int64
	}{
		{"h-22 fuel", "depot1", 40},
		{"h-22 fuel", "depot3", 15},
		{"rations", "depot1", 500},
		{"rations", "depot2", 220},
		{"ammo", "depot3", 90},
	} {
		inv.MustInsert(term.Str(r.item), term.Str(r.loc), term.Int(r.qty))
	}

	// The terrain database: an obstacle grid with named locations.
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

	sys := core.NewSystem(core.Options{})
	sys.Register(ingres)
	sys.Register(terrain.New("terraindb", grid))

	// The paper's rule, §2 (the tuple's loc attribute supplies To).
	if err := sys.LoadProgram(`
		routetosupplies(From, Sup, To, R) :-
		    in(Tuple, ingres:select_eq('inventory', 'item', Sup)) &
		    Tuple.loc = To &
		    in(R, terraindb:findrte(From, To)).
	`); err != nil {
		log.Fatal(err)
	}

	query := "?- routetosupplies('place1', 'h-22 fuel', To, R)."
	fmt.Println("query:", query)
	answers, metrics, err := sys.QueryAll(query)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range answers {
		to, _ := a.Value("To")
		route, _ := a.Value("R")
		length, _ := term.Select(route, []string{"len"})
		wps, _ := term.Select(route, []string{"waypoints"})
		fmt.Printf("  to %v: %v steps via %v\n", to, length, wps)
	}
	fmt.Printf("%d routes in %dms\n", metrics.Answers, metrics.TAll.Milliseconds())

	// Planning cost is data-dependent; after a few queries the DCSM has
	// learned findrte's behaviour from actual calls.
	for _, q := range []string{
		"?- routetosupplies('place1', 'rations', To, R).",
		"?- routetosupplies('place1', 'ammo', To, R).",
	} {
		if _, _, err := sys.QueryAll(q); err != nil {
			log.Fatal(err)
		}
	}
	st := sys.DCSM.Storage()
	fmt.Printf("\nDCSM now holds %d cost records; ask it about a route call:\n", st.RawRecords)
	cv, trace, err := sys.DCSM.CostWithTrace(patternFindrte())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  cost(terraindb:findrte('place1', $b)) = %s\n", cv)
	for _, t := range trace {
		fmt.Println("   ", t)
	}
}

func patternFindrte() domain.Pattern {
	return domain.Pattern{
		Domain:   "terraindb",
		Function: "findrte",
		Args:     []domain.PatternArg{domain.Const(term.Str("place1")), domain.Bound},
	}
}
