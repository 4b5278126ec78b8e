package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden")

// TestFiguresGolden pins the text of the deterministic text figures: 2, 3,
// 4, 5, 6, plan, optquality (n = 10, as benchrunner runs it), hitrate and
// availability. Every cell of them is a count or virtual time, so the text
// is a function of the code; a digit that moves fails here. Figures with wall-clock columns stay out.
// Regenerate with go test ./internal/experiments -run TestFiguresGolden
// -update, and say in the change why the figures moved.
func TestFiguresGolden(t *testing.T) {
	var b strings.Builder
	section := func(name, text string, err error) {
		if err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", name, text)
	}
	section("2", Figure2(), nil)
	fig3, err := Figure3()
	section("3", fig3, err)
	fig4, err := Figure4()
	section("4", fig4, err)
	fig5, err := Figure5()
	section("5", FormatFigure5(fig5), err)
	fig6, err := Figure6()
	section("6", FormatFigure6(fig6), err)
	plan, err := PlanChoice()
	section("plan", FormatPlanChoice(plan), err)
	opt, err := OptimizerQuality(10)
	section("optquality", FormatOptimizerQuality(opt), err)
	hit, err := HitRate()
	section("hitrate", FormatHitRate(hit), err)
	avail, err := Availability()
	section("availability", FormatAvailability(avail), err)
	got := b.String()

	golden := filepath.Join("testdata", "figures.golden")
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
		t.Errorf("figure text drifted from the golden.\n-- got:\n%s-- want:\n%s", got, want)
	}
}
