package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteReplacesOrLeavesIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	check := func(step, want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("%s: file = %q, %v; want %q", step, got, err, want)
		}
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
			t.Errorf("%s: temp files left behind: %v", step, tmps)
		}
	}

	if err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "first")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	check("first write", "first")

	// A writer that fails after emitting half its output — the shape of a
	// crash mid-snapshot — must not disturb the previous file.
	boom := errors.New("disk full")
	err := Write(path, func(w io.Writer) error {
		io.WriteString(w, `{"torn":`)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Errorf("Write = %v, want the writer's error", err)
	}
	check("failed write", "first")

	if err := Write(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "second")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	check("second write", "second")

	if err := Write(filepath.Join(dir, "missing", "state.json"), func(io.Writer) error { return nil }); err == nil {
		t.Error("Write into a missing directory should fail")
	}
}
