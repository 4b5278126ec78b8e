package memo

import (
	"testing"

	"hermes/internal/term"
)

// keyOf builds the memo key of an occurrence over args, compiled in one
// numbering as a rule's are: a position adorn marks bound holds its
// term's constant, or vals' next value when the term is a variable.
func keyOf(t *testing.T, fp uint64, pred, adorn string, args []term.Term, vals ...term.Value) string {
	t.Helper()
	var n term.Numbering
	slots := n.Slots(nil, args)
	in := make([]term.Value, len(args))
	for i, a := range args {
		if adorn[i] != 'b' {
			continue
		}
		if a.IsConst() {
			in[i] = a.Const
		} else {
			in[i], vals = vals[0], vals[1:]
		}
	}
	key, ok := AppendKey(nil, fp, pred, adorn, slots, in)
	if !ok {
		t.Fatalf("AppendKey(%s^%s %v) refused the occurrence", pred, adorn, args)
	}
	return string(key)
}

var (
	vX, vY, vA, vB, vZ = term.V("X"), term.V("Y"), term.V("A"), term.V("B"), term.V("Z")
)

func terms(ts ...term.Term) []term.Term { return ts }

func TestKeyAlphaEquivalence(t *testing.T) {
	// p(X, Y) and p(A, B) are the same occurrence up to renaming.
	k1 := keyOf(t, 7, "p", "ff", terms(vX, vY))
	k2 := keyOf(t, 7, "p", "ff", terms(vA, vB))
	if k1 != k2 {
		t.Errorf("α-equivalent occurrences keyed differently:\n  %q\n  %q", k1, k2)
	}
}

func TestKeyRepeatedVariableStructure(t *testing.T) {
	// p(X, X) filters caller-side on first==second; it must not share an
	// entry with p(X, Y).
	same := keyOf(t, 7, "p", "ff", terms(vX, vX))
	diff := keyOf(t, 7, "p", "ff", terms(vX, vY))
	if same == diff {
		t.Errorf("p(X,X) and p(X,Y) share key %q", same)
	}
	// ...but p(X, X) and p(Z, Z) do share.
	same2 := keyOf(t, 7, "p", "ff", terms(vZ, vZ))
	if same != same2 {
		t.Errorf("p(X,X) and p(Z,Z) keyed differently:\n  %q\n  %q", same, same2)
	}
}

func TestKeyBoundValues(t *testing.T) {
	k1 := keyOf(t, 7, "p", "bf", terms(term.C(term.Str("a")), vX))
	k2 := keyOf(t, 7, "p", "bf", terms(term.C(term.Str("b")), vX))
	if k1 == k2 {
		t.Error("different bound values share a key")
	}
	// A bound variable keys as its value, exactly as the constant does.
	if k3 := keyOf(t, 7, "p", "bf", terms(vY, vX), term.Str("a")); k3 != k1 {
		t.Errorf("a variable bound to 'a' keyed %q, the constant %q", k3, k1)
	}
}

func TestKeyDiscriminators(t *testing.T) {
	base := keyOf(t, 7, "p", "ff", terms(vX, vY))
	if other := keyOf(t, 8, "p", "ff", terms(vX, vY)); other == base {
		t.Error("different plan fingerprints share a key")
	}
	if other := keyOf(t, 7, "q", "ff", terms(vX, vY)); other == base {
		t.Error("different predicates share a key")
	}
	if other := keyOf(t, 7, "p", "fb", terms(vX, vY), term.Int(1)); other == base {
		t.Error("different adornments share a key")
	}
}

// TestKeyLiteral pins the key's bytes: they are what /debug/memo lists and
// what every earlier release keyed its entries by.
func TestKeyLiteral(t *testing.T) {
	rec := term.NewRecord(term.Field{Name: "loc", Val: term.Str("d7")})
	for _, tc := range []struct{ got, want string }{
		{keyOf(t, 7, "p", "ff", terms(vX, vY)), "p^ff|#7|v0|v1"},
		{keyOf(t, 7, "p", "ff", terms(vX, vX)), "p^ff|#7|v0|v0"},
		{keyOf(t, 0xdeadbeef, "query3", "bbff", terms(term.C(term.Int(82)), vB, vX, vA), term.Int(115)), "query3^bbff|#deadbeef|i82|i115|v0|v1"},
		{keyOf(t, 42, "q", "bfbff", terms(term.C(term.Str("rope")), vX, vZ, vX, vY), rec), `q^bfbff|#2a|s"rope"|v0|r{"loc":s"d7"}|v0|v1`},
	} {
		if tc.got != tc.want {
			t.Errorf("key %q, want %q", tc.got, tc.want)
		}
	}
}

// TestKeyRefusals: a bound position with no value and a free attribute
// path have no key.
func TestKeyRefusals(t *testing.T) {
	var n term.Numbering
	for _, tc := range []struct {
		adorn string
		args  []term.Term
	}{
		{"bf", terms(vX, vY)},            // X bound, value unknown
		{"f", terms(term.V("X", "loc"))}, // a free path
	} {
		if key, ok := AppendKey(nil, 7, "p", tc.adorn, n.Slots(nil, tc.args), make([]term.Value, len(tc.args))); ok {
			t.Errorf("%s %v keyed %q, want a refusal", tc.adorn, tc.args, key)
		}
	}
}
