// Federation: genuinely distributed operation over TCP. The example starts
// an in-process hermesd-style server hosting the sources, discovers its
// domains, registers them as remote clients in a mediator, and runs
// cross-source queries under wall-clock time — including answering through
// a simulated outage from the cache. Run with:
//
//	go run ./examples/federation
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/domains/avis"
	"hermes/internal/domains/relation"
	"hermes/internal/remote"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

func main() {
	// -- server side ------------------------------------------------------
	reg := domain.NewRegistry()
	store := avis.New("avis")
	avis.LoadRope(store)
	reg.Register(store)

	rel := relation.New("ingres")
	cast := rel.MustCreateTable(relation.Schema{Name: "cast", Cols: []relation.Column{
		{Name: "name", Type: relation.TString},
		{Name: "role", Type: relation.TString},
	}})
	for _, c := range avis.RopeCast {
		cast.MustInsert(term.Str(c.Actor), term.Str(c.Role))
	}
	reg.Register(rel)

	srv := remote.NewServer(reg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	addr := l.Addr().String()
	fmt.Println("source server listening on", addr)

	// -- mediator side ----------------------------------------------------
	sys := core.NewSystem(core.Options{Clock: vclock.NewWall()})
	names, err := remote.DiscoverDomains(addr, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	for _, n := range names {
		sys.Register(remote.NewClient(addr, n))
		fmt.Println("registered remote domain:", n)
	}
	if err := sys.LoadProgram(`
		plays(Actor, Role) :-
		    in(P, ingres:all('cast')), =(P.name, Actor), =(P.role, Role).
		on_screen(Actor, First, Last) :-
		    plays(Actor, Role) &
		    in(Obj, avis:frames_to_objects('rope', First, Last)) &
		    Obj = Role.
	`); err != nil {
		log.Fatal(err)
	}

	query := "?- on_screen(Actor, 4, 47)."
	fmt.Println("\nquery:", query)
	answers, metrics, err := sys.QueryAll(query)
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range answers {
		actor, _ := a.Value("Actor")
		fmt.Println("  on screen:", actor)
	}
	fmt.Printf("%d answers over TCP in %v (wall clock)\n", metrics.Answers, metrics.TAll.Round(time.Millisecond))

	// -- availability: stop the server, query again from cache -------------
	fmt.Println("\nstopping the source server...")
	srv.Close()
	answers2, _, err := sys.QueryAll(query)
	if err != nil {
		log.Fatalf("query during outage failed: %v", err)
	}
	fmt.Printf("cache answered through the outage: %d answers (was %d)\n", len(answers2), len(answers))
	st := sys.CIM.Stats()
	fmt.Printf("cache stats: %d exact hits, %d misses\n", st.ExactHits, st.Misses)
}
