//go:build race

package dcsm

// raceEnabled: under the race detector sync.Pool drops some of what is put
// back, so TestPeekAllocsPer's bound holds for the plain build only.
const raceEnabled = true
