//go:build race

package cim

// raceEnabled: under the race detector sync.Pool drops items at random, so
// encoding/json re-allocates the pooled scanner it compacts each saved
// value array with, and TestSaveAllocsPerEntry's bound is moot.
const raceEnabled = true
