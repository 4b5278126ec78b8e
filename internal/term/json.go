package term

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// JSONValue is the portable JSON encoding of a Value, shared by the remote
// wire protocol and the cache/statistics persistence formats. Int64
// payloads travel as decimal text so they survive JSON's float64 numbers
// exactly. The persistence formats build it and go through encoding/json;
// the wire writes and reads the same text without it (AppendJSON,
// JSONReader.Value), with encoding/json as the tests' oracle.
type JSONValue struct {
	T string      `json:"t"`           // s, i, f, b, tu, r
	S string      `json:"s,omitempty"` // string payload (also int64 text)
	F float64     `json:"f,omitempty"`
	B bool        `json:"b,omitempty"`
	L []JSONValue `json:"l,omitempty"` // tuple elements
	R []JSONField `json:"r,omitempty"` // record fields
}

// JSONField is one record field in a JSONValue.
type JSONField struct {
	N string    `json:"n"`
	V JSONValue `json:"v"`
}

// EncodeJSON converts a Value to its JSON form.
func EncodeJSON(v Value) (JSONValue, error) {
	switch cv := v.(type) {
	case Str:
		return JSONValue{T: "s", S: string(cv)}, nil
	case Int:
		return JSONValue{T: "i", S: strconv.FormatInt(int64(cv), 10)}, nil
	case Float:
		return JSONValue{T: "f", F: float64(cv)}, nil
	case Bool:
		return JSONValue{T: "b", B: bool(cv)}, nil
	case Tuple:
		out := JSONValue{T: "tu", L: make([]JSONValue, len(cv))}
		for i, e := range cv {
			we, err := EncodeJSON(e)
			if err != nil {
				return JSONValue{}, err
			}
			out.L[i] = we
		}
		return out, nil
	case Record:
		fields := cv.Fields()
		out := JSONValue{T: "r", R: make([]JSONField, len(fields))}
		for i, f := range fields {
			wv, err := EncodeJSON(f.Val)
			if err != nil {
				return JSONValue{}, err
			}
			out.R[i] = JSONField{N: f.Name, V: wv}
		}
		return out, nil
	}
	return JSONValue{}, fmt.Errorf("term: cannot encode value of kind %v", v.Kind())
}

// DecodeJSON converts a JSON form back to a Value.
func DecodeJSON(w JSONValue) (Value, error) {
	switch w.T {
	case "s":
		return Str(w.S), nil
	case "i":
		n, err := strconv.ParseInt(w.S, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("term: bad int payload %q", w.S)
		}
		return Int(n), nil
	case "f":
		return Float(w.F), nil
	case "b":
		return Bool(w.B), nil
	case "tu":
		out := make(Tuple, len(w.L))
		for i, e := range w.L {
			v, err := DecodeJSON(e)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	case "r":
		fields := make([]Field, len(w.R))
		for i, f := range w.R {
			v, err := DecodeJSON(f.V)
			if err != nil {
				return nil, err
			}
			fields[i] = Field{Name: f.N, Val: v}
		}
		return NewRecord(fields...), nil
	}
	return nil, fmt.Errorf("term: unknown value tag %q", w.T)
}

// EncodeJSONs encodes a slice of values.
func EncodeJSONs(vs []Value) ([]JSONValue, error) {
	out := make([]JSONValue, len(vs))
	for i, v := range vs {
		w, err := EncodeJSON(v)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

// AppendJSON appends the text json.Marshal writes for v's EncodeJSON form,
// without building that form. NaN and ±Inf have no JSON text and are an
// error, as they are for json.Marshal.
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
		if f != 0 { // omitempty drops -0 too
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

// Value reads one value's JSON form straight to the Value: what DecodeJSON
// returns for the JSONValue json.Unmarshal decodes from the same text.
// Text json.Unmarshal would not decode into a JSONValue is r's error, and
// so are a repeated key and a null, which it would accept. A well-formed
// form DecodeJSON rejects (an unknown tag, a bad int payload, a bad element
// even where the tag ignores it) is read to its end and returned as err.
// Keys match exactly as spelled; encoding/json also matches them
// case-insensitively.
func (r *JSONReader) Value() (Value, error) {
	var (
		tag, s       []byte
		f            float64
		b            bool
		seen         uint8
		bad          error
		vmark, fmark = len(r.vals), len(r.fields)
	)
	for more := r.Open('{'); more; more = r.More('}') {
		key := r.Key()
		var bit uint8
		switch string(key) {
		case "t":
			bit, tag = 1, r.Text()
		case "s":
			bit, s = 2, r.Text()
		case "f":
			bit, f = 4, r.Float()
		case "b":
			bit, b = 8, r.Bool()
		case "l":
			bit = 16
			for more := r.Open('['); more; more = r.More(']') {
				v, err := r.Value()
				r.vals = append(r.vals, v)
				if bad == nil {
					bad = err
				}
			}
		case "r":
			bit = 32
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
		if seen&bit != 0 {
			r.fail("repeated key %q", key)
		}
		seen |= bit
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
			v = append(make(Tuple, 0, len(r.vals)-vmark), r.vals[vmark:]...)
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

// field reads one record field's {"n":…,"v":…} form.
func (r *JSONReader) field() (Field, error) {
	var (
		name []byte
		v    Value
		seen uint8
		bad  error
	)
	for more := r.Open('{'); more; more = r.More('}') {
		key := r.Key()
		var bit uint8
		switch string(key) {
		case "n":
			bit, name = 1, r.Text()
		case "v":
			bit = 2
			v, bad = r.Value()
		default:
			r.Skip()
		}
		if seen&bit != 0 {
			r.fail("repeated key %q", key)
		}
		seen |= bit
	}
	if seen&2 == 0 && bad == nil {
		bad = fmt.Errorf("term: unknown value tag %q", "") // DecodeJSON of the zero JSONValue
	}
	return Field{Name: string(name), Val: v}, bad
}

// DecodeJSONs decodes a slice of values.
func DecodeJSONs(ws []JSONValue) ([]Value, error) {
	out := make([]Value, len(ws))
	for i, w := range ws {
		v, err := DecodeJSON(w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}
