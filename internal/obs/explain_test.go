package obs

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestExplainGolden renders a representative span tree — plan choice, an
// exact CIM hit, a partial hit completed by an actual call, and a
// breaker-open short circuit — and compares it against the golden file.
func TestExplainGolden(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := NewSpan("?- objects_between(4, 47, O).", 0)
	root.SetTag("answers", "5")
	root.SetTag("complete", "true")
	root.SetActual(Cost{TFirst: ms(231), TAll: ms(462), Card: 5})

	rw := root.Child("rewrite", 0)
	rw.SetTag("plans", "2")
	rw.End(0)

	pc := root.Child("plan-choice", 0)
	pc.SetTag("chosen", "1")
	pc.SetTag("plan", "?- CIM[in(O, avis:frames_to_objects('rope', 4, 47))].")
	pc.SetEstimate(Cost{TFirst: ms(233), TAll: ms(470), Card: 6})
	pc.End(0)

	c1 := root.Child("call avis:frames_to_objects('rope', 4, 47)", ms(230))
	c1.SetTag("route", "cim")
	c1.SetTag("cim", "partial")
	c1.SetTag("serving", "avis:frames_to_objects('rope', 10, 40)")
	c1.SetEstimate(Cost{TFirst: ms(2), TAll: ms(210), Card: 6})
	c1.SetActual(Cost{TFirst: ms(1), TAll: ms(190), Card: 5})
	c1.End(ms(420))

	c2 := root.Child("call avis:actors('rope')", ms(425))
	c2.SetTag("route", "direct")
	c2.SetTag("breaker", "open")
	c2.SetTag("error", "source temporarily unavailable")
	c2.End(ms(425))

	root.End(ms(462))
	got := Explain(root.Snapshot())

	golden := filepath.Join("testdata", "explain.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("EXPLAIN output drifted from golden.\n-- got:\n%s\n-- want:\n%s", got, want)
	}
}

// TestExplainDegradedAndPartial pins down how CIM degraded and partial
// answers render: the cim outcome, the serving entry, the matched
// invariant, and the avoided-cost tag must all be visible on the call
// line so an operator can read the serving decision off the tree.
func TestExplainDegradedAndPartial(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	root := NewSpan("?- objects_between(4, 47, O).", 0)
	root.SetTag("complete", "false")

	deg := root.Child("call avis:frames_to_objects('rope', 4, 47)", 0)
	deg.SetTag("route", "cim")
	deg.SetTag("cim", "degraded")
	deg.SetTag("degraded", "true")
	deg.SetTag("serving", "avis:frames_to_objects('rope', 4, 47)")
	deg.End(ms(1))

	part := root.Child("call avis:frames_to_objects('rope', 10, 40)", ms(2))
	part.SetTag("route", "cim")
	part.SetTag("cim", "partial")
	part.SetTag("invariant", "true => avis:frames_to_objects(F1, F2, O) <= avis:frames_to_objects(G1, G2, O).")
	part.SetTag("serving", "avis:frames_to_objects('rope', 4, 47)")
	part.End(ms(120))

	exact := root.Child("call avis:actors('rope')", ms(125))
	exact.SetTag("cim", "exact")
	exact.SetTag("cim.saved_ms", "231.0")
	exact.End(ms(126))

	root.End(ms(130))
	got := Explain(root.Snapshot())

	for _, want := range []string{
		"cim=degraded  degraded=true",
		"serving=avis:frames_to_objects('rope', 4, 47)",
		"cim=partial",
		"invariant=true => avis:frames_to_objects(F1, F2, O) <= avis:frames_to_objects(G1, G2, O).",
		"cim=exact  cim.saved_ms=231.0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("EXPLAIN missing %q:\n%s", want, got)
		}
	}
}

func TestExplainNestedIndentation(t *testing.T) {
	root := NewSpan("root", 0)
	a := root.Child("a", 0)
	a.Child("a1", 0).End(0)
	a.Child("a2", 0).End(0)
	a.End(0)
	b := root.Child("b", 0)
	b.Child("b1", 0).End(0)
	b.End(0)
	root.End(0)
	got := Explain(root.Snapshot())
	want := "root  (0.0ms)\n" +
		"├─ a  (0.0ms)\n" +
		"│  ├─ a1  (0.0ms)\n" +
		"│  └─ a2  (0.0ms)\n" +
		"└─ b  (0.0ms)\n" +
		"   └─ b1  (0.0ms)\n"
	if got != want {
		t.Errorf("tree layout:\n got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRenderersMatchFmt holds the strconv renderers to the fmt verbs they
// replaced — "%.1fms" for times, "%.2f" for cardinalities — over zero,
// negatives, ties at the rounding digit, values past the stack buffer's
// ordinary range, and the non-finite cardinalities a broken estimate makes.
func TestRenderersMatchFmt(t *testing.T) {
	fmtMillis := func(d time.Duration) string {
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	}
	durations := []time.Duration{
		0, 1, -1, 49 * time.Microsecond, 50 * time.Microsecond, 51 * time.Microsecond,
		150 * time.Microsecond, 250 * time.Microsecond, -50 * time.Microsecond,
		999949 * time.Nanosecond, 231200 * time.Microsecond, -3 * time.Second,
		1000 * time.Second, 1e6 * time.Millisecond, 123456789 * time.Millisecond,
		math.MaxInt64, math.MinInt64,
	}
	for _, d := range durations {
		if got, want := millis(d), fmtMillis(d); got != want {
			t.Errorf("millis(%d) = %q, fmt says %q", d, got, want)
		}
	}
	cards := []float64{
		0, math.Copysign(0, -1), 1, 9, -2.5, 0.005, 0.015, 0.025, 1.005, 2.675, 1e6, 1e21,
		math.MaxFloat64, math.SmallestNonzeroFloat64, math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i, card := range cards {
		c := Cost{TFirst: durations[i%len(durations)], TAll: durations[(i+7)%len(durations)], Card: card}
		want := fmt.Sprintf("[Tf=%s Ta=%s Card=%.2f]", fmtMillis(c.TFirst), fmtMillis(c.TAll), c.Card)
		var buf [96]byte
		if got := string(appendCost(buf[:0], c)); got != want {
			t.Errorf("appendCost(%+v) = %q, fmt says %q", c, got, want)
		}
	}
	// A whole node line, the three shapes writeNode prints.
	est, act := Cost{TFirst: 50 * time.Microsecond, TAll: time.Second, Card: math.Inf(1)}, Cost{Card: math.NaN()}
	for _, d := range []SpanData{
		{Name: "n", Start: 5, End: 150 * time.Microsecond},
		{Name: "n", Est: &est},
		{Name: "n", Est: &est, Actual: &act},
	} {
		want := d.Name
		if d.Est != nil {
			want += fmt.Sprintf("  est=[Tf=%s Ta=%s Card=%.2f]", fmtMillis(d.Est.TFirst), fmtMillis(d.Est.TAll), d.Est.Card)
		}
		if d.Actual != nil {
			want += fmt.Sprintf("  actual=[Tf=%s Ta=%s Card=%.2f]", fmtMillis(d.Actual.TFirst), fmtMillis(d.Actual.TAll), d.Actual.Card)
		} else if d.Est == nil {
			want += fmt.Sprintf("  (%s)", fmtMillis(d.Duration()))
		}
		if got := Explain(d); got != want+"\n" {
			t.Errorf("Explain = %q, fmt says %q", got, want+"\n")
		}
	}
}

// FuzzAppendFixed holds the fixed-point formatter to strconv's big-decimal
// rounding over arbitrary bit patterns at one and two decimals, and
// AppendMillis to strconv on the float quotient over arbitrary int64.
func FuzzAppendFixed(f *testing.F) {
	for _, v := range []float64{
		0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -1,
		0.125, 2.675, 0.15, 0.05, 0.25, 1.005, 0.045, 99.95, 9.995, -0.05, 1e-300,
		1 << 53, 1<<53 + 2, 1e15, 1e16, 1e21, 12345.675, math.MaxFloat64,
		math.SmallestNonzeroFloat64, fixedLimit[1], math.Nextafter(fixedLimit[1], 0),
		fixedLimit[2], math.Nextafter(fixedLimit[2], 0),
	} {
		f.Add(math.Float64bits(v), int64(v))
	}
	for _, d := range []int64{
		0, 1, -1, 49999, 50000, 50001, 150000, 250000, -50000, 999949, -999950,
		1<<53 - 1, 1 << 53, -(1<<53 - 1), -1 << 53, math.MaxInt64, math.MinInt64,
		9007199254749999, -9007199254849999, // past 2⁵³ the float quotient rounds up a digit
	} {
		f.Add(uint64(0), d)
	}
	f.Fuzz(func(t *testing.T, bits uint64, d int64) {
		// Quotients of d land on and beside the halfway points that random
		// bit patterns almost never reach.
		for _, v := range []float64{math.Float64frombits(bits), float64(d) / 1e3, float64(d) / 1e4} {
			for _, prec := range []int{1, 2} {
				if got, want := AppendFixed(nil, v, prec), strconv.AppendFloat(nil, v, 'f', prec, 64); string(got) != string(want) {
					t.Fatalf("AppendFixed(%v (%#x), %d) = %q, strconv says %q", v, math.Float64bits(v), prec, got, want)
				}
			}
		}
		if got, want := AppendMillis(nil, time.Duration(d)), strconv.AppendFloat(nil, float64(d)/1e6, 'f', 1, 64); string(got) != string(want) {
			t.Fatalf("AppendMillis(%d) = %q, strconv says %q", d, got, want)
		}
	})
}

// TestExplainAllocsPer: EXPLAIN of an ended tree allocates once, the
// string, and the number formatter allocates nothing into a buffer that
// holds its output.
func TestExplainAllocsPer(t *testing.T) {
	d := tenSpanTree().Snapshot()
	var text string
	if n := testing.AllocsPerRun(100, func() { text = Explain(d) }); n > 1 && !raceEnabled {
		t.Errorf("Explain allocates %v times, want 1 (the string)", n)
	}
	if strings.Count(text, "\n") != 10 {
		t.Errorf("tree of %d lines, want 10:\n%s", strings.Count(text, "\n"), text)
	}
	var buf [32]byte
	if n := testing.AllocsPerRun(100, func() {
		AppendFixed(buf[:0], 1234.5678, 2)
		AppendFixed(buf[:0], -0.333, 1)
		AppendMillis(buf[:0], 231249*time.Microsecond)
	}); n != 0 {
		t.Errorf("AppendFixed and AppendMillis allocate %v times, want 0", n)
	}
}
