package obs

import (
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
	dst = strconv.AppendFloat(dst, c.Card, 'f', 2, 64)
	return append(dst, ']')
}

// appendMillis renders a duration in execution-clock milliseconds, %.1fms.
func appendMillis(dst []byte, d time.Duration) []byte {
	dst = strconv.AppendFloat(dst, float64(d)/float64(time.Millisecond), 'f', 1, 64)
	return append(dst, "ms"...)
}

func millis(d time.Duration) string { return string(appendMillis(nil, d)) }
