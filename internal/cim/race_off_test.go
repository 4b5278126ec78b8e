//go:build !race

package cim

const raceEnabled = false
