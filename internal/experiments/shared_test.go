package experiments

import (
	"reflect"
	"testing"

	"hermes/internal/core"
	"hermes/internal/domain"
	"hermes/internal/memo"
	"hermes/internal/term"
	"hermes/internal/vclock"
)

// TestSourcesShareImmutableAnswers: the AVIS store and the relational
// database hand up values they boxed once, and the CIM, the memo and the
// engine share them instead of copying. After the differential workload
// has run through all three, at Parallelism 1 and 4, every value the
// sources hold still deep-equals a fresh build's, and every answer list a
// call hands up has cap == len, so no consumer could append into a
// neighbour's values.
func TestSourcesShareImmutableAnswers(t *testing.T) {
	fresh, err := NewTestbed(TestbedOptions{DisableCIM: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 4} {
		mcfg := memo.DefaultConfig()
		tb, err := NewTestbed(TestbedOptions{RouteViaCIM: true, WithInvariants: true, Seed: diffSeed,
			Core: core.Options{Parallelism: par, Memo: &mcfg}})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range differentialWorkload(120) {
			if _, _, err := tb.Sys.QueryAll(q.Text); err != nil {
				t.Fatalf("%s: %v", q.Text, err)
			}
		}
		if st := tb.Sys.Memo.Stats(); st.Hits == 0 || tb.Sys.CIM.Stats().ExactHits == 0 {
			t.Fatalf("p=%d: the workload never hit the caches (memo %+v)", par, st)
		}
		for _, name := range []string{"rope", "newsreel"} {
			used, _ := tb.AVIS.Video(name)
			want, _ := fresh.AVIS.Video(name)
			if !reflect.DeepEqual(used, want) {
				t.Errorf("p=%d: video %s no longer equals a fresh build", par, name)
			}
		}
		for _, c := range sourceCalls(t, fresh) {
			got := handUp(t, tb, c)
			if want := handUp(t, fresh, c); !reflect.DeepEqual(got, want) {
				t.Errorf("p=%d: %s hands up %v, a fresh build %v", par, c, got, want)
			}
		}
	}
}

// sourceCalls lists a call of every AVIS function over every object and a
// spread of ranges, and every row of every relational table.
func sourceCalls(t *testing.T, tb *Testbed) []domain.Call {
	avisCall := func(fn string, args ...term.Value) domain.Call {
		return domain.Call{Domain: "avis", Function: fn, Args: args}
	}
	relCall := func(fn string, args ...term.Value) domain.Call {
		return domain.Call{Domain: "ingres", Function: fn, Args: args}
	}
	var calls []domain.Call
	for _, name := range []string{"rope", "newsreel"} {
		v := term.Str(name)
		calls = append(calls, avisCall("objects", v), avisCall("actors", v), avisCall("cast_members", v))
		video, _ := tb.AVIS.Video(name)
		for _, o := range video.Objects() {
			calls = append(calls, avisCall("object_to_frames", v, term.Str(o)))
		}
		for f := 0; f < video.Frames; f += video.Frames / 8 {
			for _, fn := range []string{"frames_to_objects", "objects_in_range", "actors_in_range"} {
				calls = append(calls, avisCall(fn, v, term.Int(f), term.Int(f+video.Frames/5)))
			}
		}
	}
	for _, table := range []string{"cast", "crew"} {
		calls = append(calls, relCall("all", term.Str(table)))
		rows := handUp(t, tb, relCall("all", term.Str(table)))
		for _, r := range rows {
			role, _ := r.(term.Record).Get("role")
			calls = append(calls, relCall("equal", term.Str(table), term.Str("role"), role),
				relCall("select_le", term.Str(table), term.Str("role"), role))
		}
	}
	return calls
}

// handUp calls a testbed's source directly and returns the list its
// stream hands up, failing unless the list is capped at its length.
func handUp(t *testing.T, tb *Testbed, c domain.Call) []term.Value {
	t.Helper()
	ctx := domain.NewCtx(vclock.NewVirtual(0))
	var d domain.Domain = tb.AVIS
	if c.Domain == "ingres" {
		d = tb.Rel
	}
	s, err := d.Call(ctx, c.Function, c.Args)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	// A slice stream's list is unexported; reflection reads its length and
	// capacity without touching the values.
	if list := reflect.ValueOf(s).Elem().FieldByName("vals"); list.Len() != list.Cap() {
		t.Errorf("%s hands up a list of %d values with capacity %d", c, list.Len(), list.Cap())
	}
	vals, err := domain.Collect(s)
	if err != nil {
		t.Fatalf("%s: %v", c, err)
	}
	return vals
}
