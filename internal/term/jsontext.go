package term

import (
	"bytes"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// JSONReader reads one JSON text held in memory, token by token: the lexer
// under the hand-written value codec (Value) and internal/remote's frame
// codec. It accepts the texts encoding/json's scanner accepts and unquotes
// strings the way encoding/json does (invalid UTF-8 and lone surrogates
// become U+FFFD). The first syntax or type error sticks: every later call
// is a no-op, Open/More loops end, and End reports it. Byte slices it
// returns stay valid until the next Reset.
type JSONReader struct {
	data  []byte
	pos   int
	depth int
	err   error
	// text holds the strings that needed unescaping. It only grows until
	// Reset, so earlier results are never overwritten.
	text []byte
	// vals and fields are the elements of the tuples and records Value is
	// reading, one stack across nesting levels.
	vals   []Value
	fields []Field
	// arena holds the element arrays of the tuples Value reads and the
	// lists Keep copies: one allocation, sized by the value forms left in
	// the text, serves them all. Reset drops it rather than reuse it, so a
	// value read from one text retains at most that text's arena.
	arena []Value
}

// maxJSONDepth is encoding/json's nesting limit.
const maxJSONDepth = 10000

// Reset starts reading data.
func (r *JSONReader) Reset(data []byte) {
	r.data, r.pos, r.depth, r.err, r.text, r.arena = data, 0, 0, nil, r.text[:0], nil
}

// valueMark opens every value form AppendJSON writes. A JSON string
// cannot hold it unescaped, so counting it in a text counts the forms
// there, unless a peer wrote them in another key order or spacing.
var valueMark = []byte(`{"t":`)

// arenaWindow bounds the text one arena is sized for, and arenaDoubling
// the arena that doubling the last one gives, so an arena retains a
// bounded share of a long text.
const (
	arenaWindow   = 64 << 10
	arenaDoubling = 4 << 10
)

// alloc returns n slots of the arena, capped so that appending to them
// never reaches a neighbour's. An arena without room is replaced by one
// sized for n, one more slot for the value the caller is building, and
// every form left in the next arenaWindow bytes — or, if larger, twice
// the old one up to arenaDoubling, so that text the count misses (other
// key orders or spacing) still takes few allocations and few counts.
func (r *JSONReader) alloc(n int) []Value {
	if cap(r.arena)-len(r.arena) < n {
		rest := r.data[r.pos:min(len(r.data), r.pos+arenaWindow)]
		r.arena = make([]Value, 0, max(n+1+bytes.Count(rest, valueMark), min(2*cap(r.arena), arenaDoubling)))
	}
	i := len(r.arena)
	r.arena = r.arena[:i+n]
	return r.arena[i : i+n : i+n]
}

// Keep returns a copy of vs in the arena of the text being read, which
// needs no allocation of its own when the arena has room: a frame decoder
// keeps the values list it read that way.
func (r *JSONReader) Keep(vs []Value) []Value {
	if len(vs) == 0 {
		return nil
	}
	kept := r.alloc(len(vs))
	copy(kept, vs)
	return kept
}

func (r *JSONReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("json: "+format+" at offset %d", append(args, r.pos)...)
	}
}

// ws skips whitespace and returns the next byte, 0 at the end.
func (r *JSONReader) ws() byte {
	for ; r.pos < len(r.data); r.pos++ {
		switch c := r.data[r.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// Err returns the first error, if one has stuck.
func (r *JSONReader) Err() error { return r.err }

// End checks that only whitespace follows and returns the first error.
func (r *JSONReader) End() error {
	if r.ws(); r.pos != len(r.data) {
		r.fail("trailing data")
	}
	return r.err
}

// Open consumes the '{' or '[' that must come next and reports whether a
// member or element follows it: false for an empty object or array, or an
// error.
func (r *JSONReader) Open(open byte) bool {
	if r.err != nil {
		return false
	}
	if r.ws() != open {
		r.fail("want %q", open)
		return false
	}
	r.pos++
	if r.depth+1 > maxJSONDepth { // an empty container counts, as in encoding/json
		r.fail("exceeded max depth")
		return false
	}
	if close := open + 2; r.ws() == close { // '{'+2 is '}', '['+2 is ']'
		r.pos++
		return false
	}
	r.depth++
	return true
}

// More consumes what follows a member or element: a ',' (true: another
// follows) or the closing bracket (false).
func (r *JSONReader) More(close byte) bool {
	if r.err != nil {
		return false
	}
	switch r.ws() {
	case ',':
		r.pos++
		return true
	case close:
		r.pos++
		r.depth--
		return false
	}
	r.fail("want ',' or %q", close)
	return false
}

// Key reads an object member's key and its ':'.
func (r *JSONReader) Key() []byte {
	k := r.Text()
	if r.err == nil {
		if r.ws() != ':' {
			r.fail("want ':'")
			return nil
		}
		r.pos++
	}
	return k
}

// Text reads a string and returns its unquoted bytes.
func (r *JSONReader) Text() []byte {
	if r.err != nil {
		return nil
	}
	if r.ws() != '"' {
		r.fail("want a string")
		return nil
	}
	r.pos++
	d, start := r.data, r.pos
	for i := start; i < len(d); {
		switch c := d[i]; {
		case c == '"':
			r.pos = i + 1
			return d[start:i]
		case c == '\\' || c < ' ':
			return r.unquote(start, i)
		case c < utf8.RuneSelf:
			i++
		default:
			rr, size := utf8.DecodeRune(d[i:])
			if rr == utf8.RuneError && size == 1 {
				return r.unquote(start, i)
			}
			i += size
		}
	}
	r.pos = len(d)
	r.fail("unterminated string")
	return nil
}

// unquote finishes a string from d[i] on, copying it into r.text.
func (r *JSONReader) unquote(start, i int) []byte {
	d, mark := r.data, len(r.text)
	r.text = append(r.text, d[start:i]...)
	for i < len(d) {
		c := d[i]
		switch {
		case c == '"':
			r.pos = i + 1
			return r.text[mark:]
		case c < ' ':
			r.pos = i
			r.fail("control character in string")
			return nil
		case c == '\\':
			if i+1 >= len(d) {
				i = len(d)
				continue
			}
			esc := d[i+1]
			i += 2
			switch esc {
			case '"', '\\', '/':
				r.text = append(r.text, esc)
			case 'b':
				r.text = append(r.text, '\b')
			case 'f':
				r.text = append(r.text, '\f')
			case 'n':
				r.text = append(r.text, '\n')
			case 'r':
				r.text = append(r.text, '\r')
			case 't':
				r.text = append(r.text, '\t')
			case 'u':
				rr := hex4(d[i:])
				if rr < 0 {
					r.pos = i
					r.fail("bad \\u escape")
					return nil
				}
				i += 4
				if utf16.IsSurrogate(rr) {
					rr1 := rune(-1)
					if i+1 < len(d) && d[i] == '\\' && d[i+1] == 'u' {
						rr1 = hex4(d[i+2:])
					}
					if dec := utf16.DecodeRune(rr, rr1); dec != unicode.ReplacementChar {
						rr = dec
						i += 6
					} else {
						rr = unicode.ReplacementChar
					}
				}
				r.text = utf8.AppendRune(r.text, rr)
			default:
				r.pos = i - 1
				r.fail("bad escape")
				return nil
			}
		case c < utf8.RuneSelf:
			r.text = append(r.text, c)
			i++
		default:
			rr, size := utf8.DecodeRune(d[i:])
			r.text = utf8.AppendRune(r.text, rr)
			i += size
		}
	}
	r.pos = len(d)
	r.fail("unterminated string")
	return nil
}

// hex4 decodes four hex digits, -1 if they are not there.
func hex4(s []byte) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range s[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// Str reads a string.
func (r *JSONReader) Str() string { return string(r.Text()) }

// number reads a number literal.
func (r *JSONReader) number() []byte {
	if r.err != nil {
		return nil
	}
	r.ws()
	d, start := r.data, r.pos
	i := start
	digits := func() bool {
		n := i
		for i < len(d) && '0' <= d[i] && d[i] <= '9' {
			i++
		}
		return i > n
	}
	if i < len(d) && d[i] == '-' {
		i++
	}
	switch {
	case i < len(d) && d[i] == '0':
		i++
	case i < len(d) && '1' <= d[i] && d[i] <= '9':
		digits()
	default:
		r.fail("want a number")
		return nil
	}
	if i < len(d) && d[i] == '.' {
		if i++; !digits() {
			r.fail("bad number")
			return nil
		}
	}
	if i < len(d) && (d[i] == 'e' || d[i] == 'E') {
		if i++; i < len(d) && (d[i] == '+' || d[i] == '-') {
			i++
		}
		if !digits() {
			r.fail("bad number")
			return nil
		}
	}
	r.pos = i
	return d[start:i]
}

// Int reads a number that must fit an int64 (a Go int field).
func (r *JSONReader) Int() int64 {
	lit := r.number()
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if err != nil {
		r.fail("number %s is not an int", lit)
	}
	return n
}

// Uint reads a number that must fit a uint64.
func (r *JSONReader) Uint() uint64 {
	lit := r.number()
	if r.err != nil {
		return 0
	}
	n, err := strconv.ParseUint(string(lit), 10, 64)
	if err != nil {
		r.fail("number %s is not a uint64", lit)
	}
	return n
}

// Float reads a number that must fit a float64.
func (r *JSONReader) Float() float64 {
	lit := r.number()
	if r.err != nil {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.fail("number %s overflows a float64", lit)
	}
	return f
}

// literal consumes word if it comes next.
func (r *JSONReader) literal(word string) bool {
	if r.err == nil && r.ws() == word[0] && len(r.data)-r.pos >= len(word) && string(r.data[r.pos:r.pos+len(word)]) == word {
		r.pos += len(word)
		return true
	}
	return false
}

// Bool reads true or false.
func (r *JSONReader) Bool() bool {
	switch {
	case r.literal("true"):
		return true
	case !r.literal("false"):
		r.fail("want a bool")
	}
	return false
}

// Null consumes a null if one comes next.
func (r *JSONReader) Null() bool { return r.literal("null") }

// Skip reads one value of any kind and discards it.
func (r *JSONReader) Skip() {
	switch r.ws() {
	case '{':
		for more := r.Open('{'); more; more = r.More('}') {
			r.Key()
			r.Skip()
		}
	case '[':
		for more := r.Open('['); more; more = r.More(']') {
			r.Skip()
		}
	case '"':
		r.Text()
	case 't', 'f':
		r.Bool()
	case 'n':
		if !r.Null() {
			r.fail("want null")
		}
	default:
		r.number()
	}
}

// Raw reads one value of any kind and returns its text as written.
func (r *JSONReader) Raw() []byte {
	r.ws()
	start := r.pos
	r.Skip()
	if r.err != nil {
		return nil
	}
	return r.data[start:r.pos]
}
