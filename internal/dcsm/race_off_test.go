//go:build !race

package dcsm

const raceEnabled = false
