//go:build !race

package pst

const raceEnabled = false
