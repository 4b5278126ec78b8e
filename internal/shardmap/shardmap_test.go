package shardmap

import (
	"fmt"
	"sync"
	"testing"
)

type ent struct {
	key   string
	bytes int
	rank  int // eviction order: lowest first
}

func entSize(e *ent) int { return e.bytes }

// lowestRank is the test's victim policy.
func lowestRank(snap []*ent) (string, *ent) {
	v := snap[0]
	for _, e := range snap[1:] {
		if e.rank < v.rank {
			v = e
		}
	}
	return v.key, v
}

func unbounded() *Map[*ent] {
	return New(entSize, 0, 0, lowestRank, func(string, *ent) {})
}

func wantTallies(t *testing.T, m *Map[*ent], n, bytes int) {
	t.Helper()
	if m.Len() != n || m.Bytes() != bytes {
		t.Fatalf("Len=%d Bytes=%d, want %d/%d", m.Len(), m.Bytes(), n, bytes)
	}
}

func TestPutReturnsReplacedAndKeepsTallies(t *testing.T) {
	m := unbounded()
	a1 := &ent{key: "a", bytes: 10}
	if old, replaced := m.Put("a", a1); replaced || old != nil {
		t.Fatalf("fresh Put = (%v, %v), want (nil, false)", old, replaced)
	}
	m.Put("b", &ent{key: "b", bytes: 5})
	wantTallies(t, m, 2, 15)

	a2 := &ent{key: "a", bytes: 3}
	if old, replaced := m.Put("a", a2); !replaced || old != a1 {
		t.Fatalf("replacing Put = (%v, %v), want the first value", old, replaced)
	}
	wantTallies(t, m, 2, 8)
	if got, ok := m.Get("a"); !ok || got != a2 {
		t.Fatalf("Get(a) = (%v, %v), want the replacement", got, ok)
	}
	if _, ok := m.Get("zzz"); ok {
		t.Fatal("Get of an absent key reported ok")
	}
}

func TestRemoveIfStaleValueIsNoop(t *testing.T) {
	m := unbounded()
	a1, a2 := &ent{key: "a", bytes: 10}, &ent{key: "a", bytes: 4}
	m.Put("a", a1)
	m.Put("a", a2)
	if m.RemoveIf("a", a1) {
		t.Fatal("RemoveIf removed a key that maps to a newer value")
	}
	if m.RemoveIf("missing", a1) {
		t.Fatal("RemoveIf removed an absent key")
	}
	wantTallies(t, m, 1, 4)
	if !m.RemoveIf("a", a2) {
		t.Fatal("RemoveIf refused the current value")
	}
	wantTallies(t, m, 0, 0)
}

func TestReplaceAndClearResetTallies(t *testing.T) {
	m := unbounded()
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("old%d", i)
		m.Put(k, &ent{key: k, bytes: 7})
	}
	fresh := map[string]*ent{}
	for i := 0; i < 25; i++ {
		k := fmt.Sprintf("new%d", i)
		fresh[k] = &ent{key: k, bytes: 2}
	}
	m.Replace(fresh)
	wantTallies(t, m, 25, 50)
	if _, ok := m.Get("old3"); ok {
		t.Fatal("Replace kept a prior value")
	}
	if got := len(m.Snapshot()); got != 25 {
		t.Fatalf("Snapshot has %d values, want 25", got)
	}
	for k, want := range fresh {
		if got, ok := m.Get(k); !ok || got != want {
			t.Fatalf("Get(%s) after Replace = (%v, %v)", k, got, ok)
		}
	}
	m.Clear()
	wantTallies(t, m, 0, 0)
	if len(m.Snapshot()) != 0 {
		t.Fatal("Clear left values behind")
	}
	m.Put("x", &ent{key: "x", bytes: 1}) // still usable
	wantTallies(t, m, 1, 1)
}

func TestEvictInPickOrderStopsAtBudget(t *testing.T) {
	var order []string
	m := New(entSize, 3, 0, lowestRank, func(k string, e *ent) {
		if k != e.key {
			t.Errorf("evicted(%q, %+v): key mismatch", k, e)
		}
		order = append(order, k)
	})
	for i, rank := range []int{50, 10, 40, 20, 30, 60} {
		k := fmt.Sprintf("k%d", i)
		m.Put(k, &ent{key: k, bytes: 10, rank: rank})
	}
	m.Evict()
	if got := fmt.Sprint(order); got != "[k1 k3 k4]" {
		t.Fatalf("eviction order = %s, want [k1 k3 k4] (lowest rank first, stop at 3 entries)", got)
	}
	wantTallies(t, m, 3, 30)
	m.Evict() // within budget: nothing more goes
	if len(order) != 3 {
		t.Fatalf("Evict within budget removed %v", order[3:])
	}

	// The byte budget drives the same loop.
	order = nil
	mb := New(entSize, 0, 25, lowestRank, func(k string, _ *ent) { order = append(order, k) })
	for i, rank := range []int{3, 1, 2, 4} {
		k := fmt.Sprintf("b%d", i)
		mb.Put(k, &ent{key: k, bytes: 10, rank: rank})
	}
	mb.Evict()
	if got := fmt.Sprint(order); got != "[b1 b2]" {
		t.Fatalf("byte-budget eviction order = %s, want [b1 b2]", got)
	}
	wantTallies(t, mb, 2, 20)
}

func TestConcurrentPutRemoveSnapshot(t *testing.T) {
	var mu sync.Mutex
	evictions := 0
	m := New(entSize, 32, 0, lowestRank, func(string, *ent) {
		mu.Lock()
		evictions++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%64)
				e := &ent{key: k, bytes: 1 + i%5, rank: i}
				m.Put(k, e)
				m.Evict()
				switch i % 3 {
				case 0:
					m.RemoveIf(k, e)
				case 1:
					for _, s := range m.Snapshot() {
						if cur, ok := m.Get(s.key); ok && cur.key != s.key {
							t.Errorf("Get(%s) returned the value of %s", s.key, cur.key)
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	snap := m.Snapshot()
	bytes := 0
	for _, e := range snap {
		bytes += e.bytes
	}
	wantTallies(t, m, len(snap), bytes)
	if m.Len() > 32 {
		t.Fatalf("Len = %d exceeds the 32-entry budget after the last Evict", m.Len())
	}
}

// TestGetBytesAllocsPer: a byte-keyed Get finds what Get finds, and
// allocates nothing, hit or miss.
func TestGetBytesAllocsPer(t *testing.T) {
	m := unbounded()
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("d:f(%d)", i)
		m.Put(k, &ent{key: k, bytes: 1})
	}
	var buf [32]byte
	for _, k := range []string{"d:f(7)", "d:f(99)", "d:f(100)", ""} {
		want, wantOK := m.Get(k)
		key := append(buf[:0], k...)
		var got *ent
		var ok bool
		if n := testing.AllocsPerRun(100, func() { got, ok = m.GetBytes(key) }); n != 0 {
			t.Errorf("GetBytes(%q) allocates %v times, want 0", k, n)
		}
		if got != want || ok != wantOK {
			t.Errorf("GetBytes(%q) = (%v, %v), Get = (%v, %v)", k, got, ok, want, wantOK)
		}
	}
}
