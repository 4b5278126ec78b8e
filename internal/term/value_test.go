package term

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
	}{
		{Str("x"), KindString},
		{Int(3), KindInt},
		{Float(2.5), KindFloat},
		{Bool(true), KindBool},
		{Tuple{Int(1)}, KindTuple},
		{NewRecord(Field{Name: "a", Val: Int(1)}), KindRecord},
	}
	for _, c := range cases {
		if c.v.Kind() != c.kind {
			t.Errorf("%v: kind = %v, want %v", c.v, c.v.Kind(), c.kind)
		}
	}
}

func TestKeyUniqueness(t *testing.T) {
	vals := []Value{
		Str("a"), Str("b"), Str("1"), Int(1), Int(-1), Float(1), Bool(true), Bool(false),
		Tuple{}, Tuple{Int(1)}, Tuple{Int(1), Int(2)}, Tuple{Str("1")},
		NewRecord(), NewRecord(Field{Name: "a", Val: Int(1)}),
		NewRecord(Field{Name: "a", Val: Int(2)}),
		NewRecord(Field{Name: "b", Val: Int(1)}),
	}
	seen := map[string]Value{}
	for _, v := range vals {
		k := v.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("key collision: %v and %v both have key %q", prev, v, k)
		}
		seen[k] = v
	}
}

func TestRecordKeyFieldOrderInsensitive(t *testing.T) {
	a := NewRecord(Field{Name: "x", Val: Int(1)}, Field{Name: "y", Val: Int(2)})
	b := NewRecord(Field{Name: "y", Val: Int(2)}, Field{Name: "x", Val: Int(1)})
	if a.Key() != b.Key() {
		t.Errorf("record keys differ under field reordering: %q vs %q", a.Key(), b.Key())
	}
	if !Equal(a, b) {
		t.Error("records with same fields in different order are not Equal")
	}
}

func TestStrIntKeyNoCollision(t *testing.T) {
	if Str("1").Key() == Int(1).Key() {
		t.Error("Str(\"1\") and Int(1) share a key")
	}
}

func TestCompareNumericCrossKind(t *testing.T) {
	c, err := Compare(Int(2), Float(2.5))
	if err != nil {
		t.Fatalf("Compare(2, 2.5): %v", err)
	}
	if c != -1 {
		t.Errorf("Compare(2, 2.5) = %d, want -1", c)
	}
	c, err = Compare(Float(2.0), Int(2))
	if err != nil || c != 0 {
		t.Errorf("Compare(2.0, 2) = %d, %v; want 0, nil", c, err)
	}
}

func TestCompareIncompatible(t *testing.T) {
	if _, err := Compare(Str("a"), Int(1)); err == nil {
		t.Error("Compare(string, int) should error")
	}
	if _, err := Compare(Bool(true), Str("a")); err == nil {
		t.Error("Compare(bool, string) should error")
	}
}

func TestCompareTuples(t *testing.T) {
	cases := []struct {
		a, b Tuple
		want int
	}{
		{Tuple{Int(1)}, Tuple{Int(2)}, -1},
		{Tuple{Int(2)}, Tuple{Int(1)}, 1},
		{Tuple{Int(1)}, Tuple{Int(1)}, 0},
		{Tuple{Int(1)}, Tuple{Int(1), Int(2)}, -1},
		{Tuple{Int(1), Int(3)}, Tuple{Int(1), Int(2)}, 1},
	}
	for _, c := range cases {
		got, err := Compare(c.a, c.b)
		if err != nil {
			t.Fatalf("Compare(%v, %v): %v", c.a, c.b, err)
		}
		if got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestSelectTuple(t *testing.T) {
	tp := Tuple{Str("a"), Str("b")}
	v, err := Select(tp, []string{"1"})
	if err != nil || !Equal(v, Str("a")) {
		t.Errorf("Select(t, 1) = %v, %v; want 'a'", v, err)
	}
	v, err = Select(tp, []string{"2"})
	if err != nil || !Equal(v, Str("b")) {
		t.Errorf("Select(t, 2) = %v, %v; want 'b'", v, err)
	}
	if _, err := Select(tp, []string{"0"}); err == nil {
		t.Error("Select(t, 0) should error (1-based)")
	}
	if _, err := Select(tp, []string{"3"}); err == nil {
		t.Error("Select(t, 3) should error (out of range)")
	}
	if _, err := Select(tp, []string{"x"}); err == nil {
		t.Error("Select(t, x) should error (not an index)")
	}
}

func TestSelectRecordNested(t *testing.T) {
	r := NewRecord(
		Field{Name: "loc", Val: Str("depot7")},
		Field{Name: "pos", Val: NewRecord(Field{Name: "x", Val: Int(4)})},
	)
	v, err := Select(r, []string{"loc"})
	if err != nil || !Equal(v, Str("depot7")) {
		t.Errorf("Select(r, loc) = %v, %v", v, err)
	}
	v, err = Select(r, []string{"pos", "x"})
	if err != nil || !Equal(v, Int(4)) {
		t.Errorf("Select(r, pos.x) = %v, %v", v, err)
	}
	if _, err := Select(r, []string{"nope"}); err == nil {
		t.Error("Select(r, nope) should error")
	}
	if _, err := Select(Int(1), []string{"x"}); err == nil {
		t.Error("Select(int, x) should error")
	}
}

func TestSizeBytes(t *testing.T) {
	if n := SizeBytes(Str("abcd")); n != 4 {
		t.Errorf("SizeBytes(str) = %d, want 4", n)
	}
	if n := SizeBytes(Int(1)); n != 8 {
		t.Errorf("SizeBytes(int) = %d, want 8", n)
	}
	tup := Tuple{Str("ab"), Int(1)}
	if n := SizeBytes(tup); n != 2+2+8 {
		t.Errorf("SizeBytes(tuple) = %d, want 12", n)
	}
}

func TestNumeric(t *testing.T) {
	if f, ok := Numeric(Int(7)); !ok || f != 7 {
		t.Errorf("Numeric(Int(7)) = %v, %v", f, ok)
	}
	if f, ok := Numeric(Float(1.5)); !ok || f != 1.5 {
		t.Errorf("Numeric(Float(1.5)) = %v, %v", f, ok)
	}
	if _, ok := Numeric(Str("7")); ok {
		t.Error("Numeric(Str) should be false")
	}
}

// Property: Compare is a total preorder consistent with Equal on same-kind
// scalar values.
func TestCompareProperties(t *testing.T) {
	antisym := func(a, b int64) bool {
		x, y := Int(a), Int(b)
		c1, err1 := Compare(x, y)
		c2, err2 := Compare(y, x)
		if err1 != nil || err2 != nil {
			return false
		}
		return c1 == -c2 && (c1 == 0) == Equal(x, y)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Error(err)
	}
	transitive := func(a, b, c int64) bool {
		x, y, z := Int(a), Int(b), Int(c)
		cxy, _ := Compare(x, y)
		cyz, _ := Compare(y, z)
		cxz, _ := Compare(x, z)
		if cxy <= 0 && cyz <= 0 {
			return cxz <= 0
		}
		return true
	}
	if err := quick.Check(transitive, nil); err != nil {
		t.Error(err)
	}
}

// Property: Key is injective over strings (quoting prevents collisions).
func TestStrKeyInjective(t *testing.T) {
	f := func(a, b string) bool {
		if a == b {
			return Str(a).Key() == Str(b).Key()
		}
		return Str(a).Key() != Str(b).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: tuple keys are prefix-safe: <"ab"> vs <"a","b"> differ.
func TestTupleKeyComposition(t *testing.T) {
	a := Tuple{Str("ab")}
	b := Tuple{Str("a"), Str("b")}
	if a.Key() == b.Key() {
		t.Error("tuple keys collide across different splits")
	}
}

func TestStringRendering(t *testing.T) {
	if s := Str("x").String(); s != "'x'" {
		t.Errorf("Str.String() = %q", s)
	}
	if s := (Tuple{Int(1), Str("a")}).String(); s != "<1, 'a'>" {
		t.Errorf("Tuple.String() = %q", s)
	}
	r := NewRecord(Field{Name: "n", Val: Int(2)})
	if !strings.Contains(r.String(), "n: 2") {
		t.Errorf("Record.String() = %q", r.String())
	}
}

// TestStringPinned pins how values print, byte for byte, and that
// AppendString writes the same bytes: string escapes, floats, booleans,
// and records and tuples nested in each other.
func TestStringPinned(t *testing.T) {
	nested := NewRecord(
		Field{Name: "name", Val: Str("it's\ta\\b\n")},
		Field{Name: "pos", Val: Tuple{Float(-0.5), Float(1e21), Float(3), Tuple{}}},
		Field{Name: "inner", Val: NewRecord(Field{Name: "ok", Val: Bool(true)}, Field{Name: "e", Val: NewRecord()})},
	)
	cases := []struct {
		v    Value
		want string
	}{
		{Str(""), `''`},
		{Str("it's\ta\\b\n"), `'it\'s\ta\\b\n'`},
		{Int(-42), "-42"},
		{Float(2.5), "2.5"},
		{Float(1e-7), "1e-07"},
		{Float(math.Inf(-1)), "-Inf"},
		{Float(math.NaN()), "NaN"},
		{Bool(true), "true"},
		{Bool(false), "false"},
		{Tuple{Int(1), Str("x")}, "<1, 'x'>"},
		{nested, `{name: 'it\'s\ta\\b\n', pos: <-0.5, 1e+21, 3, <>>, inner: {ok: true, e: {}}}`},
	}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("String = %s, want %s", got, c.want)
		}
		if got := string(AppendString([]byte("x"), c.v)); got != "x"+c.want {
			t.Errorf("AppendString = %s, want x%s", got, c.want)
		}
	}
}
