package obs

import (
	"strconv"
	"strings"
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
	var b strings.Builder
	writeNode(&b, d, "", "")
	return b.String()
}

func writeNode(b *strings.Builder, d SpanData, firstPrefix, childPrefix string) {
	b.WriteString(firstPrefix)
	b.WriteString(d.Name)
	for _, t := range d.sortedTags() {
		b.WriteString("  ")
		b.WriteString(t)
	}
	var buf [96]byte // a cost vector of ordinary magnitudes fits
	if d.Est != nil {
		b.WriteString("  est=")
		b.Write(appendCost(buf[:0], *d.Est))
	}
	if d.Actual != nil {
		b.WriteString("  actual=")
		b.Write(appendCost(buf[:0], *d.Actual))
	} else if d.Est == nil {
		b.WriteString("  (")
		b.Write(appendMillis(buf[:0], d.Duration()))
		b.WriteByte(')')
	}
	b.WriteByte('\n')
	for i, c := range d.Children {
		last := i == len(d.Children)-1
		connector, indent := "├─ ", "│  "
		if last {
			connector, indent = "└─ ", "   "
		}
		writeNode(b, c, childPrefix+connector, childPrefix+indent)
	}
}

// appendCost renders a cost vector the way the paper's tables report it:
// [Tf=%.1fms Ta=%.1fms Card=%.2f].
func appendCost(dst []byte, c Cost) []byte {
	dst = append(dst, "[Tf="...)
	dst = appendMillis(dst, c.TFirst)
	dst = append(dst, " Ta="...)
	dst = appendMillis(dst, c.TAll)
	dst = append(dst, " Card="...)
	dst = strconv.AppendFloat(dst, c.Card, 'f', 2, 64)
	return append(dst, ']')
}

// appendMillis renders a duration in execution-clock milliseconds, %.1fms.
func appendMillis(dst []byte, d time.Duration) []byte {
	dst = strconv.AppendFloat(dst, float64(d)/float64(time.Millisecond), 'f', 1, 64)
	return append(dst, "ms"...)
}

func millis(d time.Duration) string { return string(appendMillis(nil, d)) }
