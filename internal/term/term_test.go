package term

import (
	"testing"
	"testing/quick"
)

// frameOf numbers names in order and returns an empty frame for them.
func frameOf(names ...string) (Numbering, Frame) {
	return Numbering(names), make(Frame, len(names))
}

// slot compiles a term under n.
func slot(n *Numbering, t Term) Slot { return n.Slot(&t) }

func TestUnifyBindsFreshVar(t *testing.T) {
	n, f := frameOf("X")
	if !f.Unify(slot(&n, V("X")), Int(5)) || !Equal(f[0], Int(5)) {
		t.Fatalf("Unify fresh var failed: %v", f)
	}
}

func TestUnifyBoundVar(t *testing.T) {
	n, f := frameOf("X")
	f[0] = Int(5)
	if !f.Unify(slot(&n, V("X")), Int(5)) {
		t.Error("Unify with agreeing binding should succeed")
	}
	if f.Unify(slot(&n, V("X")), Int(6)) || !Equal(f[0], Int(5)) {
		t.Error("Unify with conflicting binding should fail and keep the binding")
	}
}

func TestUnifyConst(t *testing.T) {
	var n Numbering
	f := Frame{}
	if !f.Unify(slot(&n, C(Str("a"))), Str("a")) {
		t.Error("const unifies with equal value")
	}
	if f.Unify(slot(&n, C(Str("a"))), Str("b")) {
		t.Error("const must not unify with different value")
	}
	if len(n) != 0 {
		t.Errorf("a constant was numbered: %v", n)
	}
}

func TestUnifyPathTerm(t *testing.T) {
	rec := NewRecord(Field{Name: "a", Val: Int(1)})
	n, f := frameOf("R")
	f[0] = rec
	if !f.Unify(slot(&n, V("R", "a")), Int(1)) {
		t.Error("path term equal to value should unify")
	}
	if f.Unify(slot(&n, V("R", "a")), Int(2)) {
		t.Error("path term different from value must not unify")
	}
	if _, empty := frameOf("R"); empty.Unify(slot(&n, V("R", "a")), Int(1)) || empty[0] != nil {
		t.Error("path on unbound var must not unify, nor bind")
	}
}

func TestUnifyAll(t *testing.T) {
	var n Numbering
	ss := n.Slots(nil, []Term{V("X"), C(Int(2)), V("X")})
	f := make(Frame, len(n))
	if !f.UnifyAll(ss, []Value{Int(1), Int(2), Int(1)}) || !Equal(f[0], Int(1)) {
		t.Fatalf("UnifyAll = %v", f)
	}
	if f := make(Frame, len(n)); f.UnifyAll([]Slot{ss[0], ss[2]}, []Value{Int(1), Int(2)}) {
		t.Error("UnifyAll with conflicting repeated var should fail")
	}
	if f := make(Frame, len(n)); f.UnifyAll(ss[:1], []Value{Int(1), Int(2)}) {
		t.Error("UnifyAll with arity mismatch should fail")
	}
}

func TestFrameEval(t *testing.T) {
	n, f := frameOf("X", "T", "Y")
	f[0], f[1] = Int(3), NewRecord(Field{Name: "loc", Val: Str("d7")})
	for _, c := range []struct {
		t    Term
		want Value // nil: Eval fails
	}{
		{C(Str("k")), Str("k")},
		{V("X"), Int(3)},
		{V("T", "loc"), Str("d7")},
		{V("Y"), nil},
		{V("X", "f"), nil},
	} {
		v, err := f.Eval(slot(&n, c.t))
		if (err == nil) != (c.want != nil) || c.want != nil && !Equal(v, c.want) {
			t.Errorf("Eval(%s) = %v, %v; want %v", c.t, v, err, c.want)
		}
	}
}

func TestNumberingFirstOccurrence(t *testing.T) {
	var n Numbering
	ss := n.Slots(nil, []Term{V("B"), C(Int(1)), V("A", "x"), V("B")})
	if len(n) != 2 || n[0] != "B" || n[1] != "A" || ss[0].Pos != 0 || ss[2].Pos != 1 || ss[3].Pos != 0 || len(ss[2].Term.Path) != 1 {
		t.Errorf("numbering %v, slots %+v", n, ss)
	}
}

// TestFrameAllocsPerBinding: evaluating, testing and storing a binding in
// a frame allocates nothing, however many positions the frame has.
func TestFrameAllocsPerBinding(t *testing.T) {
	n, f := frameOf("A", "B", "C", "D", "E", "Fresh")
	for i := range f[:5] {
		f[i] = Int(int64(i))
	}
	var v, two Value = Str("rope"), Int(2)
	bound, cnst, fresh := slot(&n, V("C")), slot(&n, C(v)), slot(&n, V("Fresh"))
	for name, op := range map[string]func(){
		"Unify of a bound variable": func() { f.Unify(bound, two) },
		"Unify of a constant":       func() { f.Unify(cnst, v) },
		"Unify of a fresh variable": func() { f[5] = nil; f.Unify(fresh, v) },
		"Eval":                      func() { f.Eval(bound) },
	} {
		if n := testing.AllocsPerRun(200, op); n != 0 {
			t.Errorf("%s allocates %v times, want 0", name, n)
		}
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
		var n Numbering
		s := slot(&n, V("V"+name))
		fr, v := make(Frame, len(n)), Int(val)
		if !fr.Unify(s, v) {
			return false
		}
		got, err := fr.Eval(s)
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
