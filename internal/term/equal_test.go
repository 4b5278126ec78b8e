package term

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Equal and Hash are allocation-free readers of the equality Key defines.
// These tests hold them to it: on every pair, Equal(a, b) is exactly
// a.Key() == b.Key(), and equal values hash alike.

// equalCorpus covers the places a structural comparison and a string
// comparison could part ways.
func equalCorpus() []Value {
	nan2 := Float(math.Float64frombits(0x7ff8000000000123)) // a NaN with a payload
	return []Value{
		Float(math.NaN()), nan2,
		Float(0), Float(math.Copysign(0, -1)),
		Int(0), Int(1), Float(1), Int(-1), Int(math.MinInt64),
		Float(math.Inf(1)), Float(math.Inf(-1)), Float(1e21), Float(1.5),
		Bool(true), Bool(false),
		Str(""), Str("1"), Str("i1"), Str(`a"b\c`), Str("tab\tnl\n"), Str("\xff\xfe"), Str("�"), Str("é"),
		Tuple{}, Tuple(nil), Tuple{Tuple{}}, Tuple{Str("ab")}, Tuple{Str("a"), Str("b")},
		Tuple{Int(1), Tuple{Float(1), Tuple{Str("x")}}}, Tuple{Int(1), Tuple{Float(1), Tuple{Str("y")}}},
		NewRecord(),
		NewRecord(Field{"a", Int(1)}, Field{"b", Str("x")}),
		NewRecord(Field{"b", Str("x")}, Field{"a", Int(1)}),
		NewRecord(Field{"a", Float(1)}, Field{"b", Str("x")}),
		NewRecord(Field{"a", Int(1)}, Field{"a", Int(2)}), // duplicate names: Key keeps the last
		NewRecord(Field{"a", Int(2)}, Field{"a", Int(2)}),
		Tuple{NewRecord(Field{"k", Tuple{Int(1)}})},
	}
}

func checkEqualMatchesKey(t *testing.T, a, b Value) {
	t.Helper()
	want := a.Key() == b.Key()
	if got := Equal(a, b); got != want {
		t.Fatalf("Equal(%s, %s) = %v, keys %q vs %q", a, b, got, a.Key(), b.Key())
	}
	if got := Equal(b, a); got != want {
		t.Fatalf("Equal(%s, %s) = %v, keys %q vs %q", b, a, got, b.Key(), a.Key())
	}
	if want && Hash(a) != Hash(b) {
		t.Fatalf("%s and %s are Equal but hash %x vs %x", a, b, Hash(a), Hash(b))
	}
}

func TestEqualMatchesKeyCorpus(t *testing.T) {
	vals := equalCorpus()
	for _, a := range vals {
		for _, b := range vals {
			checkEqualMatchesKey(t, a, b)
		}
	}
	if Equal(nil, Int(0)) || Equal(Int(0), nil) || !Equal(nil, nil) {
		t.Error("nil is equal to nil and to nothing else")
	}
}

// randomValue draws from a deliberately small alphabet so that equal pairs
// are common.
func randomValue(rng *rand.Rand, depth int) Value {
	kind := rng.Intn(6)
	if depth <= 0 && kind >= 4 {
		kind = rng.Intn(4)
	}
	switch kind {
	case 0:
		return Str([]string{"", "a", "b", `"`, "1"}[rng.Intn(5)])
	case 1:
		return Int(rng.Intn(3))
	case 2:
		return Float([]float64{0, math.Copysign(0, -1), 1, 2, math.NaN(), math.Float64frombits(0x7ff8000000000123)}[rng.Intn(6)])
	case 3:
		return Bool(rng.Intn(2) == 0)
	case 4:
		t := make(Tuple, rng.Intn(3))
		for i := range t {
			t[i] = randomValue(rng, depth-1)
		}
		return t
	}
	fs := make([]Field, rng.Intn(3))
	for i := range fs {
		fs[i] = Field{Name: []string{"a", "b"}[rng.Intn(2)], Val: randomValue(rng, depth-1)}
	}
	return NewRecord(fs...)
}

func TestEqualMatchesKeyRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	equal := 0
	for i := 0; i < 20000; i++ {
		a, b := randomValue(rng, 2), randomValue(rng, 2)
		checkEqualMatchesKey(t, a, b)
		if Equal(a, b) {
			equal++
		}
	}
	if equal < 500 {
		t.Fatalf("only %d equal pairs drawn: the generator no longer exercises the true arm", equal)
	}
}

func TestEqualAndHashDoNotAllocate(t *testing.T) {
	a := Tuple{Str("rope"), Int(7), Float(2.5), Tuple{Bool(true), Str(`needs "escapes"`)}}
	b := Tuple{Str("rope"), Int(7), Float(2.5), Tuple{Bool(true), Str(`needs "escapes"`)}}
	var av, bv Value = a, b
	if n := testing.AllocsPerRun(100, func() {
		if !Equal(av, bv) || Hash(av) != Hash(bv) {
			t.Fatal("equal tuples differ")
		}
	}); n != 0 {
		t.Errorf("Equal+Hash allocate %v times per call", n)
	}
}

// The fuzz target decodes each input into a value with a small prefix
// code; encodeFuzz is its inverse, so the seeds below are the corpus
// values themselves rather than opaque bytes.
func encodeFuzz(v Value) []byte {
	switch x := v.(type) {
	case Str:
		return append([]byte{0, byte(len(x))}, x...)
	case Int:
		return binary.BigEndian.AppendUint64([]byte{1}, uint64(x))
	case Float:
		return binary.BigEndian.AppendUint64([]byte{2}, math.Float64bits(float64(x)))
	case Bool:
		if x {
			return []byte{3, 1}
		}
		return []byte{3, 0}
	case Tuple:
		out := []byte{4, byte(len(x))}
		for _, e := range x {
			out = append(out, encodeFuzz(e)...)
		}
		return out
	case Record:
		out := []byte{5, byte(len(x.fields))}
		for _, f := range x.fields {
			out = append(out, byte(len(f.Name)))
			out = append(out, f.Name...)
			out = append(out, encodeFuzz(f.Val)...)
		}
		return out
	}
	panic("unreachable")
}

// decodeFuzz reads one value off the front of data. It accepts every
// input: short data reads as zeros, counts and lengths are taken modulo 8,
// nesting past depth 4 bottoms out in an Int.
func decodeFuzz(data []byte, depth int) (Value, []byte) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	take := func(n int) []byte {
		if n > len(data) {
			n = len(data)
		}
		out := data[:n]
		data = data[n:]
		return out
	}
	word := func() uint64 {
		var w [8]byte
		copy(w[:], take(8))
		return binary.BigEndian.Uint64(w[:])
	}
	kind := next() % 6
	if depth >= 4 && kind >= 4 {
		kind = 1
	}
	switch kind {
	case 0:
		return Str(take(int(next() % 8))), data
	case 1:
		return Int(word()), data
	case 2:
		return Float(math.Float64frombits(word())), data
	case 3:
		return Bool(next()%2 == 1), data
	case 4:
		t := make(Tuple, next()%8)
		for i := range t {
			t[i], data = decodeFuzz(data, depth+1)
		}
		return t, data
	}
	fs := make([]Field, next()%8)
	for i := range fs {
		fs[i].Name = string(take(int(next() % 8)))
		fs[i].Val, data = decodeFuzz(data, depth+1)
	}
	return NewRecord(fs...), data
}

func TestFuzzCodecRoundTrips(t *testing.T) {
	for _, v := range equalCorpus() {
		got, rest := decodeFuzz(encodeFuzz(v), 0)
		if len(rest) != 0 || got.Key() != v.Key() {
			t.Errorf("%s decodes as %s (%d bytes left)", v, got, len(rest))
		}
	}
}

// FuzzEqualMatchesKey: Equal(a, b) == (a.Key() == b.Key()) and Equal
// implies equal hashes, on whatever two values the input decodes to; and
// AppendKey and AppendString append exactly Key and String.
func FuzzEqualMatchesKey(f *testing.F) {
	vals := equalCorpus()
	for i, a := range vals {
		f.Add(encodeFuzz(a), encodeFuzz(a))
		f.Add(encodeFuzz(a), encodeFuzz(vals[(i+1)%len(vals)]))
	}
	f.Add(encodeFuzz(Str(`a\b`)), encodeFuzz(Str("'\n\t\x7f\x00é")))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte) {
		a, _ := decodeFuzz(rawA, 0)
		b, _ := decodeFuzz(rawB, 0)
		checkEqualMatchesKey(t, a, b)
		for _, v := range []Value{a, b} {
			if got := string(AppendKey(nil, v)); got != v.Key() {
				t.Fatalf("AppendKey(%s) = %q, Key %q", v, got, v.Key())
			}
			if got := string(AppendString([]byte("x"), v)); got != "x"+v.String() {
				t.Fatalf("AppendString(%s) = %q, String %q", v, got, "x"+v.String())
			}
		}
	})
}
