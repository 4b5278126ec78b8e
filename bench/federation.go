package main

import (
	"fmt"
	"net"

	"hermes/internal/cim"
	"hermes/internal/core"
	"hermes/internal/dcsm"
	"hermes/internal/domain"
	"hermes/internal/domains/avis"
	"hermes/internal/domains/relation"
	"hermes/internal/experiments"
	"hermes/internal/memo"
	"hermes/internal/obs"
	"hermes/internal/remote"
	"hermes/internal/resilience"
)

// program is the mediator program every workload loads: the testbed's
// query3 and actors rules, the range API as an IDB predicate, and the two
// join_scan rules. The invariants are the two cmd/hermesd ships.
const program = `
	actors(Actor) :- in(Actor, avis:actors('rope')).
	query3(First, Last, Object, Actor) :-
	    in(Object, avis:frames_to_objects('rope', First, Last)) &
	    in(P, ingres:equal('cast', 'role', Object)) &
	    =(P.name, Actor).
	news(First, Last, Object, Frames) :-
	    in(Object, avis:frames_to_objects('newsreel', First, Last)) &
	    in(Frames, avis:object_to_frames('newsreel', Object)).
	crew_pairs(Role, A, B) :-
	    in(P, ingres:equal('crew', 'role', Role)) &
	    in(Q, ingres:equal('crew', 'role', Role)) &
	    =(P.name, A) & =(Q.name, B).

	true => avis:frames_to_objects(V, F, L) = avis:objects_in_range(V, F, L).
	F1 <= G1 & G2 <= F2 => avis:frames_to_objects(V, F1, F2) >= avis:frames_to_objects(V, G1, G2).
`

// sources returns the testbed federation's data: AVIS with rope and
// newsreel (1200 frames, 60 objects), INGRES with cast and crew. The
// stores come from experiments.NewTestbed so the benchmark queries the
// same data as every figure; its system is discarded.
func sources() (*avis.Store, *relation.DB, error) {
	tb, err := experiments.NewTestbed(experiments.TestbedOptions{DisableCIM: true})
	if err != nil {
		return nil, nil, err
	}
	return tb.AVIS, tb.Rel, nil
}

// federation is one system under test plus everything the driver needs to
// read its layers and to shut it down.
type federation struct {
	sys *core.System
	// wrapped are the pass-through wrappers around every source node A
	// calls: local stores, or on two_hop the remote clients.
	wrapped []*countingDomain
	// clients and peerObs are set on two_hop only.
	clients []*remote.Client
	peerObs *obs.Observer
	stop    func()
}

// newFederation builds the system under test for a workload, with exactly
// the core.Options cmd/hermesd's /query handler uses except Clock: the
// execution clock stays virtual, so modelled source and cache costs advance
// virtual time only and wall time is the mediator's own work.
func newFederation(sp *spec) (*federation, error) {
	store, rel, err := sources()
	if err != nil {
		return nil, err
	}
	o := obs.NewObserver()
	pol := resilience.DefaultPolicy()
	opts := core.Options{
		Obs:                o,
		Resilience:         &pol,
		CalInflateQuantile: 0.9,
		ColdStartInflation: 1.5,
	}
	if sp.noCache {
		opts.DisableCIM = true
	} else {
		ccfg := cim.DefaultConfig()
		ccfg.MaxEntries = sp.cacheEntries
		mcfg := memo.DefaultConfig()
		if sp.cacheEntries > 0 {
			mcfg.MaxEntries = sp.cacheEntries
		}
		opts.CIM, opts.Memo = &ccfg, &mcfg
	}
	f := &federation{sys: core.NewSystem(opts), stop: func() {}}

	doms := []domain.Domain{store, rel}
	if sp.twoHop {
		// Node B serves the stores the way hermesd does; remote.Server runs
		// served calls on a wall clock, so B's sources must cost nothing.
		store.SetCostParams(avis.CostParams{})
		rel.SetCostParams(relation.CostParams{})
		reg := domain.NewRegistry()
		reg.Register(store)
		reg.Register(rel)
		srv := remote.NewServer(reg)
		srv.NodeName = "node-b"
		srv.Logf = func(string, ...any) {}
		f.peerObs = obs.NewObserver()
		srv.SetObserver(f.peerObs)
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("two_hop: listen: %w", err)
		}
		served := make(chan struct{})
		go func() {
			defer close(served)
			_ = srv.Serve(l) // returns net.ErrClosed on stop
		}()
		doms = doms[:0]
		for _, name := range []string{store.Name(), rel.Name()} {
			c := remote.NewClient(l.Addr().String(), name)
			f.clients = append(f.clients, c)
			doms = append(doms, c)
		}
		f.stop = func() {
			for _, c := range f.clients {
				c.Close()
			}
			srv.Close()
			<-served
		}
	}
	for _, d := range doms {
		w := &countingDomain{inner: d}
		f.wrapped = append(f.wrapped, w)
		f.sys.Register(w)
	}
	if err := f.sys.LoadProgram(program); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// newOracle builds the naive reference system: no CIM, no memo, strictly
// sequential, local sources. Its statistics are capped because only its
// answers matter.
func newOracle() (*core.System, error) {
	store, rel, err := sources()
	if err != nil {
		return nil, err
	}
	dcfg := dcsm.DefaultConfig()
	dcfg.MaxRecordsPerCall = 16
	sys := core.NewSystem(core.Options{DisableCIM: true, Parallelism: 1, DCSM: &dcfg})
	sys.Register(store)
	sys.Register(rel)
	if err := sys.LoadProgram(program); err != nil {
		return nil, err
	}
	return sys, nil
}
