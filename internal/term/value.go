// Package term defines the value and term model of the mediator language:
// ground values exchanged with source domains (constants, records, tuples),
// terms appearing in rules (constants, variables, attribute paths such as
// $ans.1 or P.name), substitutions, and unification.
package term

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Kind discriminates the concrete type of a Value.
type Kind int

// Value kinds.
const (
	KindString Kind = iota
	KindInt
	KindFloat
	KindBool
	KindTuple
	KindRecord
)

func (k Kind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	case KindTuple:
		return "tuple"
	case KindRecord:
		return "record"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Value is a ground value: the arguments and answers of domain calls.
// Implementations are immutable; share them freely.
type Value interface {
	// Kind reports the concrete kind.
	Kind() Kind
	// Key returns a canonical encoding, unique per value, suitable for use
	// as a map key (cache keys, statistics-table dimensions).
	Key() string
	// String renders the value the way the mediator language would print it.
	String() string
}

// Str is a string constant.
type Str string

// Kind reports KindString.
func (s Str) Kind() Kind { return KindString }

// Key returns a canonical quoted encoding.
func (s Str) Key() string {
	var buf [stackBuf]byte
	return string(s.appendKey(buf[:0]))
}

func (s Str) appendKey(dst []byte) []byte {
	return strconv.AppendQuote(append(dst, 's'), string(s))
}

// String renders the constant the way the language reads it back:
// single-quoted, with backslash, quote, newline and tab escaped.
func (s Str) String() string {
	var buf [stackBuf]byte
	return string(s.appendString(buf[:0]))
}

func (s Str) appendString(dst []byte) []byte {
	return append(append(append(dst, '\''), strEscaper.Replace(string(s))...), '\'')
}

var strEscaper = strings.NewReplacer(`\`, `\\`, `'`, `\'`, "\n", `\n`, "\t", `\t`)

// stackBuf is the stack buffer a string or integer's key or rendering is
// built in before its one copy into a string; a longer one grows on the
// heap.
const stackBuf = 64

// AppendKey appends v.Key() to dst; strings and integers are written in
// place, other kinds through their Key.
func AppendKey(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case Str:
		return x.appendKey(dst)
	case Int:
		return x.appendKey(dst)
	}
	return append(dst, v.Key()...)
}

// AppendString appends v.String() to dst. Every kind of this package is
// written in place, records and tuples element by element; a Value from
// outside it goes through its String. It recurses into records and tuples
// only through itself: escape analysis then keeps a caller's stack buffer
// on the stack, which it does not across a cycle of functions.
func AppendString(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case Str:
		return x.appendString(dst)
	case Int:
		return x.appendString(dst)
	case Float:
		return strconv.AppendFloat(dst, float64(x), 'g', -1, 64)
	case Bool:
		return strconv.AppendBool(dst, bool(x))
	case Tuple:
		dst = append(dst, '<')
		for i, e := range x {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = AppendString(dst, e)
		}
		return append(dst, '>')
	case Record:
		dst = append(dst, '{')
		for i, f := range x.fields {
			if i > 0 {
				dst = append(dst, ", "...)
			}
			dst = AppendString(append(append(dst, f.Name...), ": "...), f.Val)
		}
		return append(dst, '}')
	}
	return append(dst, v.String()...)
}

// Int is an integer constant.
type Int int64

// Kind reports KindInt.
func (i Int) Kind() Kind { return KindInt }

// Key returns a canonical decimal encoding.
func (i Int) Key() string {
	var buf [stackBuf]byte
	return string(i.appendKey(buf[:0]))
}

func (i Int) appendKey(dst []byte) []byte { return i.appendString(append(dst, 'i')) }

// String is appendString's digits as a string; FormatInt, unlike a copy
// out of a buffer, hands out 0 to 99 without allocating.
func (i Int) String() string { return strconv.FormatInt(int64(i), 10) }

func (i Int) appendString(dst []byte) []byte { return strconv.AppendInt(dst, int64(i), 10) }

// Float is a floating-point constant.
type Float float64

// Kind reports KindFloat.
func (f Float) Kind() Kind { return KindFloat }

// Key returns a canonical encoding.
func (f Float) Key() string { return "f" + strconv.FormatFloat(float64(f), 'g', -1, 64) }

func (f Float) String() string { return strconv.FormatFloat(float64(f), 'g', -1, 64) }

// Bool is a boolean constant.
type Bool bool

// Kind reports KindBool.
func (b Bool) Kind() Kind { return KindBool }

// Key returns "bt" or "bf".
func (b Bool) Key() string {
	if b {
		return "bt"
	}
	return "bf"
}

func (b Bool) String() string {
	if b {
		return "true"
	}
	return "false"
}

// Tuple is a positional composite value. Attribute "1" selects the first
// component, as in the paper's $ans.1 notation.
type Tuple []Value

// Kind reports KindTuple.
func (t Tuple) Kind() Kind { return KindTuple }

// Key returns a canonical encoding of all components.
func (t Tuple) Key() string {
	var b strings.Builder
	b.WriteString("t(")
	for i, v := range t {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(v.Key())
	}
	b.WriteByte(')')
	return b.String()
}

func (t Tuple) String() string {
	var buf [stackBuf]byte
	return string(AppendString(buf[:0], t))
}

// Field is one named component of a Record.
type Field struct {
	Name string
	Val  Value
}

// Record is a composite value with named fields, as returned by sources such
// as relational tables (P.name, P.role).
type Record struct {
	fields []Field
}

// NewRecord builds a record from fields. Field order is preserved for
// display; Key is order-insensitive so that records with the same
// field/value sets compare equal as cache keys.
func NewRecord(fields ...Field) Record {
	fs := make([]Field, len(fields))
	copy(fs, fields)
	return Record{fields: fs}
}

// Kind reports KindRecord.
func (r Record) Kind() Kind { return KindRecord }

// Fields returns the record's fields in declaration order. The returned
// slice must not be modified.
func (r Record) Fields() []Field { return r.fields }

// Get returns the value of the named field.
func (r Record) Get(name string) (Value, bool) {
	for _, f := range r.fields {
		if f.Name == name {
			return f.Val, true
		}
	}
	return nil, false
}

// Key returns a canonical, field-order-insensitive encoding.
func (r Record) Key() string {
	names := make([]string, len(r.fields))
	byName := make(map[string]Value, len(r.fields))
	for i, f := range r.fields {
		names[i] = f.Name
		byName[f.Name] = f.Val
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("r{")
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Quote(n))
		b.WriteByte(':')
		b.WriteString(byName[n].Key())
	}
	b.WriteByte('}')
	return b.String()
}

func (r Record) String() string {
	var buf [stackBuf]byte
	return string(AppendString(buf[:0], r))
}

// Equal reports whether two values are identical: it answers exactly what
// a.Key() == b.Key() answers — Int(1) differs from Float(1), every NaN
// equals every NaN, +0 differs from -0, record field order is ignored —
// but reads the values instead of building their keys. Key stays the one
// canonical encoding; only records (and Value implementations from outside
// this package) still compare through it.
func Equal(a, b Value) bool {
	switch av := a.(type) {
	case nil:
		return b == nil
	case Str:
		bv, ok := b.(Str)
		return ok && av == bv
	case Int:
		bv, ok := b.(Int)
		return ok && av == bv
	case Float:
		bv, ok := b.(Float)
		return ok && floatBits(av) == floatBits(bv)
	case Bool:
		bv, ok := b.(Bool)
		return ok && av == bv
	case Tuple:
		bv, ok := b.(Tuple)
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if !Equal(av[i], bv[i]) {
				return false
			}
		}
		return true
	case Record:
		bv, ok := b.(Record)
		return ok && av.Key() == bv.Key()
	}
	return b != nil && a.Key() == b.Key()
}

// floatBits is the identity Float.Key encodes: the bit pattern, with all
// NaNs folded into one.
func floatBits(f Float) uint64 {
	if f != f {
		return 0x7ff8000000000001
	}
	return math.Float64bits(float64(f))
}

// FNV-1a parameters.
const (
	hashOffset uint64 = 14695981039346656037
	hashPrime  uint64 = 1099511628211
)

// Hash returns a 64-bit hash consistent with Equal: Equal(a, b) implies
// Hash(a) == Hash(b). Like Equal it reads the value rather than its key,
// so it does not allocate except for records. Hashes are stable within and
// across processes but are not a persistence format.
func Hash(v Value) uint64 {
	switch x := v.(type) {
	case nil:
		return hashOffset
	case Str:
		return hashString(hashWord(hashOffset, uint64(KindString)), string(x))
	case Int:
		return hashWord(hashWord(hashOffset, uint64(KindInt)), uint64(x))
	case Float:
		return hashWord(hashWord(hashOffset, uint64(KindFloat)), floatBits(x))
	case Bool:
		var bit uint64
		if x {
			bit = 1
		}
		return hashWord(hashWord(hashOffset, uint64(KindBool)), bit)
	case Tuple:
		h := hashWord(hashWord(hashOffset, uint64(KindTuple)), uint64(len(x)))
		for _, e := range x {
			h = hashWord(h, Hash(e))
		}
		return h
	}
	// Records hash their order-insensitive key, as Equal compares it.
	return hashString(hashWord(hashOffset, uint64(KindRecord)), v.Key())
}

func hashWord(h, w uint64) uint64 { return (h ^ w) * hashPrime }

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * hashPrime
	}
	return h
}

// Numeric reports whether v is an Int or Float, and its float64 reading.
func Numeric(v Value) (float64, bool) {
	switch n := v.(type) {
	case Int:
		return float64(n), true
	case Float:
		return float64(n), true
	}
	return 0, false
}

// Compare orders two values: -1, 0, +1. Int and Float compare numerically
// with each other; otherwise both values must have the same kind. Tuples and
// records compare component-wise. Comparing incompatible kinds is an error.
func Compare(a, b Value) (int, error) {
	if fa, ok := Numeric(a); ok {
		if fb, ok := Numeric(b); ok {
			switch {
			case fa < fb:
				return -1, nil
			case fa > fb:
				return 1, nil
			}
			return 0, nil
		}
	}
	if a.Kind() != b.Kind() {
		return 0, fmt.Errorf("cannot compare %s with %s", a.Kind(), b.Kind())
	}
	switch av := a.(type) {
	case Str:
		return strings.Compare(string(av), string(b.(Str))), nil
	case Bool:
		bv := b.(Bool)
		switch {
		case !bool(av) && bool(bv):
			return -1, nil
		case bool(av) && !bool(bv):
			return 1, nil
		}
		return 0, nil
	case Tuple:
		bv := b.(Tuple)
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		for i := 0; i < n; i++ {
			c, err := Compare(av[i], bv[i])
			if err != nil || c != 0 {
				return c, err
			}
		}
		switch {
		case len(av) < len(bv):
			return -1, nil
		case len(av) > len(bv):
			return 1, nil
		}
		return 0, nil
	case Record:
		// Records order by canonical key; a total order is all that is needed.
		return strings.Compare(a.Key(), b.Key()), nil
	}
	return 0, fmt.Errorf("cannot compare values of kind %s", a.Kind())
}

// Select resolves an attribute path against a value: numeric components
// index tuples (1-based, as in $ans.1), names index record fields.
func Select(v Value, path []string) (Value, error) {
	cur := v
	for _, attr := range path {
		switch cv := cur.(type) {
		case Tuple:
			idx, err := strconv.Atoi(attr)
			if err != nil {
				return nil, fmt.Errorf("tuple attribute %q is not an index", attr)
			}
			if idx < 1 || idx > len(cv) {
				return nil, fmt.Errorf("tuple index %d out of range 1..%d", idx, len(cv))
			}
			cur = cv[idx-1]
		case Record:
			fv, ok := cv.Get(attr)
			if !ok {
				return nil, fmt.Errorf("record has no field %q", attr)
			}
			cur = fv
		default:
			return nil, fmt.Errorf("cannot select attribute %q from %s value", attr, cur.Kind())
		}
	}
	return cur, nil
}

// SizeBytes estimates the wire size of a value, used by the network
// simulation to charge transfer time and by the experiments to report
// result sizes the way the paper does ("6 tuples (421 bytes)").
func SizeBytes(v Value) int {
	switch cv := v.(type) {
	case Str:
		return len(cv)
	case Int, Float:
		return 8
	case Bool:
		return 1
	case Tuple:
		n := 2
		for _, e := range cv {
			n += SizeBytes(e)
		}
		return n
	case Record:
		n := 2
		for _, f := range cv.fields {
			n += len(f.Name) + SizeBytes(f.Val)
		}
		return n
	}
	return 8
}
