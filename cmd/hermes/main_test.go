package main

import (
	"net"
	"os"
	"path/filepath"
	"testing"

	"hermes/internal/domain"
	"hermes/internal/domains/avis"
	"hermes/internal/remote"
)

func testShell(t *testing.T) *shell {
	t.Helper()
	sys, err := newSystem("")
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadProgram(builtinProgram); err != nil {
		t.Fatal(err)
	}
	return &shell{sys: sys}
}

func TestShellRunQuery(t *testing.T) {
	sh := testShell(t)
	if err := sh.runQuery("?- actors(A)."); err != nil {
		t.Fatal(err)
	}
	// Second run hits the cache.
	if err := sh.runQuery("?- actors(A)."); err != nil {
		t.Fatal(err)
	}
	if st := sh.sys.CIM.Stats(); st.ExactHits == 0 {
		t.Errorf("no cache hit on repeat: %+v", st)
	}
}

func TestShellLoadProgramStatement(t *testing.T) {
	sh := testShell(t)
	if err := sh.execute("mine(X) :- in(X, avis:objects('rope'))."); err != nil {
		t.Fatal(err)
	}
	if err := sh.execute("?- mine(X)."); err != nil {
		t.Fatal(err)
	}
}

func TestShellPlansAndStats(t *testing.T) {
	sh := testShell(t)
	if err := sh.printPlans("?- objects_between(4, 47, O)."); err != nil {
		t.Fatal(err)
	}
	sh.printStats()
	sh.printCache()
}

func TestShellLimit(t *testing.T) {
	sh := testShell(t)
	sh.limit = 2
	sh.interactive = true
	if err := sh.runQuery("?- objects_between(4, 127, O)."); err != nil {
		t.Fatal(err)
	}
}

func TestShellSaveLoad(t *testing.T) {
	sh := testShell(t)
	if err := sh.runQuery("?- actors(A)."); err != nil {
		t.Fatal(err)
	}
	prefix := filepath.Join(t.TempDir(), "state")
	if err := sh.saveState(prefix); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(prefix + ".cache.json"); err != nil {
		t.Fatal(err)
	}
	sh2 := testShell(t)
	if err := sh2.loadState(prefix); err != nil {
		t.Fatal(err)
	}
	if sh2.sys.CIM.Len() == 0 {
		t.Error("loaded cache is empty")
	}
}

func TestProgramFileLoading(t *testing.T) {
	sh := testShell(t)
	path := filepath.Join(t.TempDir(), "extra.hql")
	if err := os.WriteFile(path, []byte(`
		props(O) :- in(O, avis:objects('rope')) & O != 'chest'.
	`), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.sys.LoadProgram(string(src)); err != nil {
		t.Fatal(err)
	}
	if err := sh.runQuery("?- props(O)."); err != nil {
		t.Fatal(err)
	}
}

func TestShellQueryError(t *testing.T) {
	sh := testShell(t)
	if err := sh.runQuery("?- nosuch(X)."); err == nil {
		t.Error("unknown predicate should error")
	}
}

// TestConnectStampsRecordsOnWallClock: a -connect system runs on the wall
// clock, and the DCSM must stamp its records with that clock — it used to
// keep the virtual clock the system was first built with, so every record
// of a real remote session read RecordedAt = 0.
func TestConnectStampsRecordsOnWallClock(t *testing.T) {
	store := avis.New("avis")
	avis.LoadRope(store)
	reg := domain.NewRegistry()
	reg.Register(store)
	srv := remote.NewServer(reg)
	srv.Logf = func(string, ...any) {}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	sys, err := newSystem(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.LoadProgram(builtinProgram); err != nil {
		t.Fatal(err)
	}
	sh := &shell{sys: sys, trace: true}
	if err := sh.runQuery("?- actors(A)."); err != nil {
		t.Fatal(err)
	}
	recs := sys.DCSM.Records("avis", "actors", 1)
	if len(recs) == 0 {
		t.Fatal("the remote call left no DCSM record")
	}
	for _, r := range recs {
		if r.RecordedAt <= 0 {
			t.Errorf("record %s stamped RecordedAt = %v, want a wall-clock reading", r.Call, r.RecordedAt)
		}
	}
}
