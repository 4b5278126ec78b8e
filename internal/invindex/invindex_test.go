package invindex

import (
	"testing"

	"hermes/internal/domain"
	"hermes/internal/lang"
	"hermes/internal/term"
)

func tmpl(dom, fn string, args ...term.Term) lang.CallTemplate {
	return lang.CallTemplate{Domain: dom, Function: fn, Args: args}
}

func eq(l, r lang.CallTemplate) *lang.Invariant {
	return &lang.Invariant{Rel: lang.RelEqual, Left: l, Right: r}
}

func sup(l, r lang.CallTemplate) *lang.Invariant {
	return &lang.Invariant{Rel: lang.RelSuperset, Left: l, Right: r}
}

func TestInvariantBuckets(t *testing.T) {
	ix := New()
	// Equality across two functions: registered under both sides' keys.
	cross := eq(tmpl("avis", "actors", term.V("V")), tmpl("avis", "cast_members", term.V("V")))
	// Equality whose sides share a key: registered once in that bucket.
	same := eq(
		tmpl("avis", "frames_to_objects", term.V("V"), term.C(term.Int(0)), term.C(term.Int(159))),
		tmpl("avis", "frames_to_objects", term.V("V"), term.C(term.Int(0)), term.C(term.Int(200))),
	)
	// Superset: Left key only.
	wide := sup(
		tmpl("avis", "objects", term.V("V")),
		tmpl("avis", "frames_to_objects", term.V("V"), term.V("F"), term.V("L")),
	)
	for _, inv := range []*lang.Invariant{cross, same, wide} {
		ix.AddInvariant(inv)
	}

	if got := ix.Equalities(Key{"avis", "actors", 1}); len(got) != 1 || got[0] != cross {
		t.Fatalf("actors bucket = %v, want [cross]", got)
	}
	if got := ix.Equalities(Key{"avis", "cast_members", 1}); len(got) != 1 || got[0] != cross {
		t.Fatalf("cast_members bucket = %v, want [cross]", got)
	}
	if got := ix.Equalities(Key{"avis", "frames_to_objects", 3}); len(got) != 1 || got[0] != same {
		t.Fatalf("shared-key equality registered %d times, want once", len(got))
	}
	if got := ix.Supersets(Key{"avis", "objects", 1}); len(got) != 1 || got[0] != wide {
		t.Fatalf("objects superset bucket = %v, want [wide]", got)
	}
	if got := ix.Supersets(Key{"avis", "frames_to_objects", 3}); len(got) != 0 {
		t.Fatalf("superset indexed under its subset side: %v", got)
	}
	if ix.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ix.Len())
	}
}

func TestProbesAllocateNothing(t *testing.T) {
	ix := New()
	ix.AddInvariant(eq(tmpl("avis", "actors", term.V("V")), tmpl("avis", "cast_members", term.V("V"))))
	ix.AddInvariant(sup(tmpl("avis", "objects", term.V("V")), tmpl("avis", "frames_to_objects", term.V("V"), term.V("F"), term.V("L"))))
	k := Key{"avis", "actors", 1}
	sk := Key{"avis", "objects", 1}
	if n := testing.AllocsPerRun(100, func() {
		if len(ix.Equalities(k)) != 1 || len(ix.Supersets(sk)) != 1 {
			t.Fatal("probe missed its bucket")
		}
	}); n != 0 {
		t.Fatalf("bucket probes allocated %.1f times per run, want 0", n)
	}
}

func call(dom, fn string, n int) domain.Call {
	args := make([]term.Value, n)
	for i := range args {
		args[i] = term.Int(int64(i))
	}
	return domain.Call{Domain: dom, Function: fn, Args: args}
}

func TestCallIndex(t *testing.T) {
	ix := New()
	var keys []string
	for i := 0; i < 5; i++ {
		c := call("avis", "frames_to_objects", i)
		ix.AddCall(c)
		keys = append(keys, c.Key())
	}
	ix.AddCall(call("ingres", "all", 1))

	got := ix.CallKeys("avis", "frames_to_objects")
	if len(got) != 5 {
		t.Fatalf("CallKeys returned %d keys, want 5", len(got))
	}
	for i, k := range got {
		if k != keys[i] {
			t.Fatalf("CallKeys[%d] = %q, want %q (insertion order)", i, k, keys[i])
		}
	}
	// Re-adding is idempotent.
	ix.AddCall(call("avis", "frames_to_objects", 2))
	if n := len(ix.CallKeys("avis", "frames_to_objects")); n != 5 {
		t.Fatalf("re-add grew the bucket to %d", n)
	}
	ix.RemoveCall(call("avis", "frames_to_objects", 2))
	got = ix.CallKeys("avis", "frames_to_objects")
	if len(got) != 4 {
		t.Fatalf("after remove: %d keys, want 4", len(got))
	}
	ix.ResetCalls([]domain.Call{call("spatial", "near", 2)})
	if ix.CallKeys("avis", "frames_to_objects") != nil {
		t.Fatal("ResetCalls kept stale buckets")
	}
	if n := len(ix.CallKeys("spatial", "near")); n != 1 {
		t.Fatalf("ResetCalls lost the fresh call: %d keys", n)
	}
}

func TestCallBucketCompaction(t *testing.T) {
	ix := New()
	for i := 0; i < 100; i++ {
		ix.AddCall(call("d", "f", i))
	}
	for i := 0; i < 80; i++ {
		ix.RemoveCall(call("d", "f", i))
	}
	got := ix.CallKeys("d", "f")
	if len(got) != 20 {
		t.Fatalf("after removals: %d keys, want 20", len(got))
	}
	for i, k := range got {
		if want := call("d", "f", 80+i).Key(); k != want {
			t.Fatalf("compaction broke insertion order: [%d] = %q, want %q", i, k, want)
		}
	}
	// Removing every call deletes the bucket.
	for i := 80; i < 100; i++ {
		ix.RemoveCall(call("d", "f", i))
	}
	if ix.CallKeys("d", "f") != nil {
		t.Fatal("empty bucket survived")
	}
}

func TestBuckets(t *testing.T) {
	ix := New()
	ix.AddInvariant(eq(tmpl("avis", "actors", term.V("V")), tmpl("avis", "cast_members", term.V("V"))))
	ix.AddInvariant(eq(tmpl("avis", "actors", term.C(term.Str("rope"))), tmpl("avis", "cast_members", term.C(term.Str("rope")))))
	ix.AddInvariant(sup(tmpl("avis", "objects", term.V("V")), tmpl("avis", "frames_to_objects", term.V("V"), term.V("F"), term.V("L"))))
	ix.AddCall(call("avis", "actors", 1))

	bs := ix.Buckets()
	if len(bs) != 3 {
		t.Fatalf("got %d buckets, want 3 (actors, cast_members, objects)", len(bs))
	}
	byKey := map[string]BucketInfo{}
	for _, b := range bs {
		byKey[b.Key.String()] = b
	}
	a := byKey["avis:actors/1"]
	if len(a.Equalities) != 2 || a.Shapes != 2 || a.CachedCalls != 1 {
		t.Fatalf("actors bucket = %+v, want 2 equalities, 2 shapes, 1 cached call", a)
	}
	o := byKey["avis:objects/1"]
	if len(o.Supersets) != 1 || o.CachedCalls != 0 {
		t.Fatalf("objects bucket = %+v, want 1 superset, 0 cached calls", o)
	}
	// Sorted by key.
	for i := 1; i < len(bs); i++ {
		if bs[i-1].Key.String() >= bs[i].Key.String() {
			t.Fatalf("buckets not sorted: %s before %s", bs[i-1].Key, bs[i].Key)
		}
	}
}

func TestShapeKey(t *testing.T) {
	cases := []struct {
		tmpl lang.CallTemplate
		want string
	}{
		{tmpl("avis", "frames_to_objects", term.V("V"), term.V("F"), term.V("L")), "avis:frames_to_objects/3|v0|v1|v2"},
		{tmpl("avis", "frames_to_objects", term.V("A"), term.V("B"), term.V("A")), "avis:frames_to_objects/3|v0|v1|v0"},
		{tmpl("avis", "objects", term.C(term.Str("rope"))), "avis:objects/1|" + term.Str("rope").Key()},
		{tmpl("ingres", "equal", term.V("P", "name")), "ingres:equal/1|v0.name"},
		{tmpl("d", "f"), "d:f/0"},
	}
	for _, c := range cases {
		if got := ShapeKey(&c.tmpl); got != c.want {
			t.Errorf("ShapeKey(%v) = %q, want %q", c.tmpl, got, c.want)
		}
	}
}

func TestKeyStrings(t *testing.T) {
	c := call("avis", "actors", 2)
	if KeyOfCall(c).String() != "avis:actors/2" {
		t.Fatalf("KeyOfCall = %s", KeyOfCall(c))
	}
	tp := tmpl("avis", "actors", term.V("V"))
	if KeyOfTemplate(&tp) != (Key{"avis", "actors", 1}) {
		t.Fatalf("KeyOfTemplate = %v", KeyOfTemplate(&tp))
	}
	if !Relevant(&tp, call("avis", "actors", 1)) || Relevant(&tp, c) {
		t.Fatal("Relevant dispatch check broken")
	}
}
