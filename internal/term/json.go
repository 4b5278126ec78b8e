package term

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// A value's JSON form is one object: its tag "t" (s, i, f, b, tu, r) and
// the payload key the tag reads, left out when it holds the zero value:
// "s" (a string, or an int's decimal text, so int64s survive JSON's
// float64 numbers exactly), "f", "b", "l" (tuple elements) or "r" (record
// fields, each {"n":name,"v":value}). It is the text encoding/json writes
// for the reflective tree json_test.go keeps as the codec's oracle, except
// that a negative zero is written "f":-0 and keeps its sign. The wire and
// the cache and statistics snapshots all write it with AppendJSON and read
// it with JSONReader.Value.

// AppendJSONs appends vs as a JSON array of their JSON forms, [] for none.
// On error it returns dst as it was.
func AppendJSONs(dst []byte, vs []Value) ([]byte, error) {
	start := len(dst)
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = AppendJSON(dst, v); err != nil {
			return dst[:start], err
		}
	}
	return append(dst, ']'), nil
}

// EncodeJSONs is AppendJSONs into a new slice.
func EncodeJSONs(vs []Value) ([]byte, error) { return AppendJSONs(nil, vs) }

// DecodeJSONs reads an array EncodeJSONs wrote. A null, or no text at all
// (a snapshot field that is absent), reads as no values.
func DecodeJSONs(data []byte) ([]Value, error) {
	var r JSONReader
	r.Reset(data)
	out := []Value{}
	if len(data) > 0 && !r.Null() {
		for more := r.Open('['); more; more = r.More(']') {
			v, err := r.Value()
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
	}
	if err := r.End(); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendJSON appends v's JSON form. NaN and ±Inf have no JSON text and are
// an error, as they are for json.Marshal.
func AppendJSON(dst []byte, v Value) ([]byte, error) {
	switch cv := v.(type) {
	case Str:
		dst = append(dst, `{"t":"s"`...)
		if cv != "" {
			dst = AppendJSONString(append(dst, `,"s":`...), string(cv))
		}
	case Int:
		dst = append(strconv.AppendInt(append(dst, `{"t":"i","s":"`...), int64(cv), 10), '"')
	case Float:
		f := float64(cv)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return dst, fmt.Errorf("term: float %v has no JSON form", f)
		}
		dst = append(dst, `{"t":"f"`...)
		if f != 0 || math.Signbit(f) { // omitempty would drop -0 and its sign
			dst = AppendJSONFloat(append(dst, `,"f":`...), f)
		}
	case Bool:
		dst = append(dst, `{"t":"b"`...)
		if cv {
			dst = append(dst, `,"b":true`...)
		}
	case Tuple:
		dst = append(dst, `{"t":"tu"`...)
		for i, e := range cv {
			if i == 0 {
				dst = append(dst, `,"l":[`...)
			} else {
				dst = append(dst, ',')
			}
			var err error
			if dst, err = AppendJSON(dst, e); err != nil {
				return dst, err
			}
		}
		if len(cv) > 0 {
			dst = append(dst, ']')
		}
	case Record:
		dst = append(dst, `{"t":"r"`...)
		for i, f := range cv.Fields() {
			if i == 0 {
				dst = append(dst, `,"r":[`...)
			} else {
				dst = append(dst, ',')
			}
			dst = append(AppendJSONString(append(dst, `{"n":`...), f.Name), `,"v":`...)
			var err error
			if dst, err = AppendJSON(dst, f.Val); err != nil {
				return dst, err
			}
			dst = append(dst, '}')
		}
		if len(cv.Fields()) > 0 {
			dst = append(dst, ']')
		}
	case nil:
		return dst, fmt.Errorf("term: cannot encode a nil value")
	default:
		return dst, fmt.Errorf("term: cannot encode value of kind %v", v.Kind())
	}
	return append(dst, '}'), nil
}

// AppendJSONFloat formats f the way encoding/json does: like
// strconv's shortest 'f', switching to 'e' outside [1e-6, 1e21), with the
// exponent's leading zero dropped.
func AppendJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

const hexDigits = "0123456789abcdef"

// AppendJSONString appends s quoted the way encoding/json quotes it with
// HTML escaping on: <, > and & as \u00XX, invalid UTF-8 as \ufffd, and
// U+2028/U+2029 escaped.
func AppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		rr, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case rr == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case rr == '\u2028' || rr == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[rr&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(dst, s[start:]...), '"')
}

// valueKeys and fieldKeys are the keys of a value's and a record field's
// JSON forms, in the order of their bits in a Member seen-set.
var (
	valueKeys = []string{"t", "s", "f", "b", "l", "r"}
	fieldKeys = []string{"n", "v"}
)

// Value reads one value's JSON form straight to the Value. Malformed JSON,
// a payload of the wrong JSON type, a repeated key (the rule of Member)
// and a null are r's error. A well-formed form that names no value (an
// unknown tag, a bad int payload, a bad element even where the tag ignores
// it) is read to its end and returned as err. Unknown keys are skipped,
// and keys match exactly as spelled. json_test.go and FuzzDecodeJSON hold
// it to encoding/json decoding the oracle tree; encoding/json also matches
// keys case-insensitively and accepts a null.
func (r *JSONReader) Value() (Value, error) {
	var (
		tag, s       []byte
		f            float64
		b            bool
		seen         uint32
		bad          error
		vmark, fmark = len(r.vals), len(r.fields)
	)
	for more := r.Open('{'); more; more = r.More('}') {
		switch string(r.Member(&seen, valueKeys)) {
		case "t":
			tag = r.Text()
		case "s":
			s = r.Text()
		case "f":
			f = r.Float()
		case "b":
			b = r.Bool()
		case "l":
			for more := r.Open('['); more; more = r.More(']') {
				v, err := r.Value()
				r.vals = append(r.vals, v)
				if bad == nil {
					bad = err
				}
			}
		case "r":
			for more := r.Open('['); more; more = r.More(']') {
				fld, err := r.field()
				r.fields = append(r.fields, fld)
				if bad == nil {
					bad = err
				}
			}
		default:
			r.Skip()
		}
	}
	var v Value
	if r.err == nil && bad == nil {
		switch string(tag) {
		case "s":
			v = Str(s)
		case "i":
			n, err := strconv.ParseInt(string(s), 10, 64)
			if err != nil {
				bad = fmt.Errorf("term: bad int payload %q", s)
			}
			v = Int(n)
		case "f":
			v = Float(f)
		case "b":
			v = Bool(b)
		case "tu":
			t := Tuple{}
			if n := len(r.vals) - vmark; n > 0 {
				t = r.alloc(n)
				copy(t, r.vals[vmark:])
			}
			v = t
		case "r":
			v = Record{fields: append(make([]Field, 0, len(r.fields)-fmark), r.fields[fmark:]...)}
		default:
			bad = fmt.Errorf("term: unknown value tag %q", tag)
		}
	}
	clear(r.vals[vmark:])
	clear(r.fields[fmark:])
	r.vals, r.fields = r.vals[:vmark], r.fields[:fmark]
	if bad != nil {
		return nil, bad
	}
	return v, nil
}

// field reads one record field's {"n":…,"v":…} form; a field without "v"
// names no value.
func (r *JSONReader) field() (Field, error) {
	var (
		name []byte
		v    Value
		seen uint32
		bad  error
	)
	for more := r.Open('{'); more; more = r.More('}') {
		switch string(r.Member(&seen, fieldKeys)) {
		case "n":
			name = r.Text()
		case "v":
			v, bad = r.Value()
		default:
			r.Skip()
		}
	}
	if seen&2 == 0 && bad == nil && r.err == nil { // no "v"
		bad = fmt.Errorf("term: unknown value tag %q", "") // as for a form without "t"
	}
	return Field{Name: string(name), Val: v}, bad
}
