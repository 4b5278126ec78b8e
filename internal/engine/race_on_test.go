//go:build race

package engine

// raceEnabled: under the race detector a traced equality hit allocates
// once more than without it, so TestServedCallAllocsPer's bounds hold for
// the plain build only.
const raceEnabled = true
