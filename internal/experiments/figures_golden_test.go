package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/figures.golden")

// TestFiguresGolden pins the text of the deterministic text figures: 2, 3,
// 4, 5, 6, plan, optquality, hitrate and availability, each rendered from
// its row of Figures as benchrunner runs it. Every cell of them is a count
// or virtual time, so the text is a function of the code; a digit that
// moves fails here. Figures with wall-clock columns stay out.
// Regenerate with go test ./internal/experiments -run TestFiguresGolden
// -update, and say in the change why the figures moved.
func TestFiguresGolden(t *testing.T) {
	var b strings.Builder
	for _, name := range []string{"2", "3", "4", "5", "6", "plan", "optquality", "hitrate", "availability"} {
		i := slices.IndexFunc(Figures, func(f Figure) bool { return f.Name == name })
		if i < 0 {
			t.Fatalf("no figure %s", name)
		}
		text, _, err := Figures[i].Run()
		if err != nil {
			t.Fatalf("figure %s: %v", name, err)
		}
		fmt.Fprintf(&b, "== %s ==\n%s\n", name, text)
	}
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
