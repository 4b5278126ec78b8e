// Package atomicfile writes state files (cache and statistics snapshots,
// flight-recorder dumps) so that a crash or a failed write never leaves a
// torn file where a good one was.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write replaces the file at path with what write produces, or leaves it
// untouched. The bytes go to a temp file in path's own directory (rename is
// only atomic within one filesystem), are fsynced, and the file is closed
// with its error checked before it is renamed over path. When any step
// fails the previous file stays intact and the temp file is removed; a
// crash can at worst strand a *.tmp file beside an intact target.
func Write(path string, write func(io.Writer) error) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close() // already failing; a second Close is harmless
			os.Remove(tmp.Name())
		}
	}()
	// CreateTemp makes the file 0600; a snapshot should be as readable as
	// a file from os.Create.
	if err = tmp.Chmod(0o644); err != nil {
		return err
	}
	if err = write(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
