package term

import (
	"testing"
	"testing/quick"
)

func TestSubstEval(t *testing.T) {
	s := Subst{}.Bind("X", Int(3)).Bind("T", NewRecord(Field{Name: "loc", Val: Str("d7")}))
	v, err := s.Eval(C(Str("k")))
	if err != nil || !Equal(v, Str("k")) {
		t.Errorf("Eval(const) = %v, %v", v, err)
	}
	v, err = s.Eval(V("X"))
	if err != nil || !Equal(v, Int(3)) {
		t.Errorf("Eval(X) = %v, %v", v, err)
	}
	v, err = s.Eval(V("T", "loc"))
	if err != nil || !Equal(v, Str("d7")) {
		t.Errorf("Eval(T.loc) = %v, %v", v, err)
	}
	if _, err := s.Eval(V("Y")); err == nil {
		t.Error("Eval(unbound) should error")
	}
	if _, err := s.Eval(V("X", "f")); err == nil {
		t.Error("Eval(path on int) should error")
	}
}

func TestSubstGround(t *testing.T) {
	s := Subst{}.Bind("X", Int(1))
	if !s.Ground(C(Int(9))) {
		t.Error("constants are ground")
	}
	if !s.Ground(V("X")) {
		t.Error("bound var is ground")
	}
	if s.Ground(V("Y")) {
		t.Error("unbound var is not ground")
	}
}

func TestUnifyBindsFreshVar(t *testing.T) {
	s := Subst{}
	s2, ok := s.Unify(V("X"), Int(5))
	if !ok || !Equal(valueOf(s2, "X"), Int(5)) {
		t.Fatalf("Unify fresh var failed: %v %v", s2, ok)
	}
	if _, bound := s.Lookup("X"); bound {
		t.Error("Unify mutated the original substitution")
	}
}

func TestUnifyBoundVar(t *testing.T) {
	s := Subst{}.Bind("X", Int(5))
	if _, ok := s.Unify(V("X"), Int(5)); !ok {
		t.Error("Unify with agreeing binding should succeed")
	}
	if _, ok := s.Unify(V("X"), Int(6)); ok {
		t.Error("Unify with conflicting binding should fail")
	}
}

func TestUnifyConst(t *testing.T) {
	s := Subst{}
	if _, ok := s.Unify(C(Str("a")), Str("a")); !ok {
		t.Error("const unifies with equal value")
	}
	if _, ok := s.Unify(C(Str("a")), Str("b")); ok {
		t.Error("const must not unify with different value")
	}
}

func TestUnifyPathTerm(t *testing.T) {
	rec := NewRecord(Field{Name: "a", Val: Int(1)})
	s := Subst{}.Bind("R", rec)
	if _, ok := s.Unify(V("R", "a"), Int(1)); !ok {
		t.Error("path term equal to value should unify")
	}
	if _, ok := s.Unify(V("R", "a"), Int(2)); ok {
		t.Error("path term different from value must not unify")
	}
	if _, ok := (Subst{}).Unify(V("R", "a"), Int(1)); ok {
		t.Error("path on unbound var must not unify")
	}
}

func TestUnifyAll(t *testing.T) {
	s, ok := (Subst{}).UnifyAll(
		[]Term{V("X"), C(Int(2)), V("X")},
		[]Value{Int(1), Int(2), Int(1)})
	if !ok || !Equal(valueOf(s, "X"), Int(1)) {
		t.Fatalf("UnifyAll = %v, %v", s, ok)
	}
	if _, ok := (Subst{}).UnifyAll(
		[]Term{V("X"), V("X")},
		[]Value{Int(1), Int(2)}); ok {
		t.Error("UnifyAll with conflicting repeated var should fail")
	}
	if _, ok := (Subst{}).UnifyAll([]Term{V("X")}, []Value{Int(1), Int(2)}); ok {
		t.Error("UnifyAll with arity mismatch should fail")
	}
}

func TestRelOpHolds(t *testing.T) {
	cases := []struct {
		op   RelOp
		a, b Value
		want bool
	}{
		{OpEQ, Int(1), Int(1), true},
		{OpEQ, Int(1), Float(1), true},
		{OpEQ, Str("a"), Str("b"), false},
		{OpNE, Str("a"), Str("b"), true},
		{OpLT, Int(1), Int(2), true},
		{OpLE, Int(2), Int(2), true},
		{OpGT, Float(2.5), Int(2), true},
		{OpGE, Int(1), Int(2), false},
	}
	for _, c := range cases {
		got, err := c.op.Holds(c.a, c.b)
		if err != nil {
			t.Fatalf("%v %v %v: %v", c.a, c.op, c.b, err)
		}
		if got != c.want {
			t.Errorf("%v %v %v = %v, want %v", c.a, c.op, c.b, got, c.want)
		}
	}
}

func TestRelOpEqIncomparableKinds(t *testing.T) {
	// Equality across incomparable kinds is simply false, not an error.
	ok, err := OpEQ.Holds(Str("a"), Int(1))
	if err != nil || ok {
		t.Errorf("OpEQ('a', 1) = %v, %v; want false, nil", ok, err)
	}
	if _, err := OpLT.Holds(Str("a"), Int(1)); err == nil {
		t.Error("OpLT across kinds should error")
	}
}

func TestParseRelOp(t *testing.T) {
	for s, want := range map[string]RelOp{
		"=": OpEQ, "==": OpEQ, "!=": OpNE, "<>": OpNE,
		"<": OpLT, "<=": OpLE, "=<": OpLE, ">": OpGT, ">=": OpGE, "=>": OpGE,
	} {
		got, ok := ParseRelOp(s)
		if !ok || got != want {
			t.Errorf("ParseRelOp(%q) = %v, %v", s, got, ok)
		}
	}
	if _, ok := ParseRelOp("<<"); ok {
		t.Error("ParseRelOp(<<) should fail")
	}
}

func TestTermString(t *testing.T) {
	if s := V("X", "loc").String(); s != "X.loc" {
		t.Errorf("term string = %q", s)
	}
	if s := C(Int(4)).String(); s != "4" {
		t.Errorf("const string = %q", s)
	}
}

// Property: Unify(t, v) then Eval(t) returns v.
func TestUnifyEvalRoundTrip(t *testing.T) {
	f := func(name string, val int64) bool {
		if name == "" {
			return true
		}
		v := Int(val)
		s, ok := (Subst{}).Unify(V("V"+name), v)
		if !ok {
			return false
		}
		got, err := s.Eval(V("V" + name))
		return err == nil && Equal(got, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: op and its dual agree: a < b iff b > a, etc.
func TestRelOpDuality(t *testing.T) {
	f := func(a, b int64) bool {
		x, y := Int(a), Int(b)
		lt, _ := OpLT.Holds(x, y)
		gt, _ := OpGT.Holds(y, x)
		le, _ := OpLE.Holds(x, y)
		ge, _ := OpGE.Holds(y, x)
		return lt == gt && le == ge
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	s := Subst{}.Bind("X", Int(1))
	c := s.Bind("Y", Int(2))
	if _, ok := s.Lookup("Y"); ok {
		t.Error("Bind changed the substitution it extended")
	}
	if !Equal(valueOf(c, "Y"), Int(2)) || !Equal(valueOf(c, "X"), Int(1)) {
		t.Errorf("extended substitution = %v", c)
	}
}

// valueOf is s[name] of the map Subst used to be: nil when unbound.
func valueOf(s Subst, name string) Value {
	v, _ := s.Lookup(name)
	return v
}
