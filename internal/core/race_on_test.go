//go:build race

package core

// raceEnabled: under the race detector sync.Pool drops items at random, so
// Explain's pooled scratch is re-grown and its one-allocation gate is moot.
const raceEnabled = true
