package obs

import (
	"math"
	"strconv"
	"sync"
	"time"
)

// Explain renders a finished query span tree as a text tree, one node per
// line:
//
//	?- actors(A).  answers=9 complete=true  actual=[Tf=231.2ms Ta=243.5ms Card=9]
//	├─ rewrite  plans=2  (0.0ms)
//	├─ plan-choice  chosen=1  est=[Tf=233.6ms Ta=246.1ms Card=9.00]
//	└─ call avis:actors('rope')  cim=exact route=cim  est=[...] actual=[...]
//
// Each node shows its name, its sorted outcome tags, the estimated and
// actual [Tf, Ta, Card] cost vectors when recorded, and otherwise its
// clock extent. The output is deterministic for deterministic runs (tags
// sorted, virtual-clock times).
func Explain(d SpanData) string {
	e := explainPool.Get().(*explainBuf)
	defer explainPool.Put(e)
	e.out, e.prefix = e.out[:0], e.prefix[:0]
	e.node(d, "", "")
	return string(e.out) // the one allocation, of exactly the final size
}

// explainBuf is Explain's scratch: the text so far and the tree prefix.
type explainBuf struct{ out, prefix []byte }

var explainPool = sync.Pool{New: func() any { return new(explainBuf) }}

// node writes d's line after prefix+connector, then its children under
// prefix+indent.
func (e *explainBuf) node(d SpanData, connector, indent string) {
	b := append(append(append(e.out, e.prefix...), connector...), d.Name...)
	for _, t := range d.Tags {
		b = append(append(append(append(b, "  "...), t.K...), '='), t.V...)
	}
	if d.Est != nil {
		b = appendCost(append(b, "  est="...), *d.Est)
	}
	if d.Actual != nil {
		b = appendCost(append(b, "  actual="...), *d.Actual)
	} else if d.Est == nil {
		b = append(appendMillis(append(b, "  ("...), d.Duration()), ')')
	}
	e.out = append(b, '\n')
	n := len(e.prefix)
	e.prefix = append(e.prefix, indent...)
	for i, c := range d.Children {
		if i == len(d.Children)-1 {
			e.node(c, "└─ ", "   ")
		} else {
			e.node(c, "├─ ", "│  ")
		}
	}
	e.prefix = e.prefix[:n]
}

// appendCost renders a cost vector the way the paper's tables report it:
// [Tf=%.1fms Ta=%.1fms Card=%.2f].
func appendCost(dst []byte, c Cost) []byte {
	dst = append(dst, "[Tf="...)
	dst = appendMillis(dst, c.TFirst)
	dst = append(dst, " Ta="...)
	dst = appendMillis(dst, c.TAll)
	dst = append(dst, " Card="...)
	dst = AppendFixed(dst, c.Card, 2)
	return append(dst, ']')
}

// appendMillis renders a duration in execution-clock milliseconds, %.1fms.
func appendMillis(dst []byte, d time.Duration) []byte {
	return append(AppendMillis(dst, d), "ms"...)
}

func millis(d time.Duration) string { return string(appendMillis(nil, d)) }

// FormatMillis returns what AppendMillis appends, as a span tag value.
func FormatMillis(d time.Duration) string {
	var buf [24]byte
	return string(AppendMillis(buf[:0], d))
}

// FormatFixed returns what AppendFixed appends, as a span tag value.
func FormatFixed(f float64, prec int) string {
	var buf [24]byte
	return string(AppendFixed(buf[:0], f, prec))
}

// AppendMillis appends d in milliseconds with one decimal, byte for byte
// what strconv.AppendFloat(dst, float64(d)/1e6, 'f', 1, 64) appends. Below
// 2⁵³ ns the quotient's rounding error is under a nanosecond, so rounding
// the nanoseconds to the nearest 10⁵ reads the same digit unless they lie
// exactly halfway; only then, and past 2⁵³, does it ask strconv.
func AppendMillis(dst []byte, d time.Duration) []byte {
	const tenth = uint64(time.Millisecond / 10)
	n := int64(d)
	if n <= -1<<53 || n >= 1<<53 {
		return strconv.AppendFloat(dst, float64(d)/1e6, 'f', 1, 64)
	}
	u := uint64(n)
	if n < 0 {
		u = uint64(-n)
	}
	q, r := u/tenth, u%tenth
	switch {
	case r == tenth/2:
		return strconv.AppendFloat(dst, float64(d)/1e6, 'f', 1, 64)
	case r > tenth/2:
		q++
	}
	if n < 0 {
		dst = append(dst, '-')
	}
	return appendScaled(dst, q, 1)
}

// fixedLimit bounds the magnitudes AppendFixed rounds itself, per
// precision: below 2⁵³/10^(prec+1) a float's spacing is under a tenth of
// the digit it rounds to, so its shortest digits and its exact value lie
// on the same side of every rounding boundary they do not end on.
var fixedLimit = [...]float64{1 << 53 / 1e1, 1 << 53 / 1e2, 1 << 53 / 1e3, 1 << 53 / 1e4}

// AppendFixed appends f with prec digits after the point, byte for byte
// what strconv.AppendFloat(dst, f, 'f', prec, 64) appends. strconv rounds
// the float's exact binary value through a big decimal; this rounds its
// shortest decimal digits instead, which agrees except when those digits
// end exactly on the halfway point: that case, NaN, ±Inf, magnitudes at or
// past fixedLimit and precisions beyond it ask strconv.
func AppendFixed(dst []byte, f float64, prec int) []byte {
	if prec < 0 || prec >= len(fixedLimit) || !(math.Abs(f) < fixedLimit[prec]) {
		return strconv.AppendFloat(dst, f, 'f', prec, 64)
	}
	var buf [32]byte
	digits := strconv.AppendFloat(buf[:0], math.Abs(f), 'f', -1, 64)
	var m uint64 // f scaled by 10^prec, truncated
	i := 0
	for ; i < len(digits) && digits[i] != '.'; i++ {
		m = m*10 + uint64(digits[i]-'0')
	}
	var frac []byte
	if i < len(digits) {
		frac = digits[i+1:]
	}
	for j := 0; j < prec; j++ {
		m *= 10
		if j < len(frac) {
			m += uint64(frac[j] - '0')
		}
	}
	if len(frac) > prec {
		// Shortest digits carry no trailing zeros: a rest of "5" is exactly
		// halfway, anything longer starting with 5 is above it.
		switch rest := frac[prec:]; {
		case len(rest) == 1 && rest[0] == '5':
			return strconv.AppendFloat(dst, f, 'f', prec, 64)
		case rest[0] >= '5':
			m++
		}
	}
	if math.Signbit(f) {
		dst = append(dst, '-')
	}
	return appendScaled(dst, m, prec)
}

// appendScaled appends m/10^prec with exactly prec digits after the point.
func appendScaled(dst []byte, m uint64, prec int) []byte {
	var buf [24]byte
	i := len(buf)
	for k := 0; k < prec; k++ {
		i--
		buf[i] = byte('0' + m%10)
		m /= 10
	}
	if prec > 0 {
		i--
		buf[i] = '.'
	}
	for {
		i--
		buf[i] = byte('0' + m%10)
		if m /= 10; m == 0 {
			return append(dst, buf[i:]...)
		}
	}
}
