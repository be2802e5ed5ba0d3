//go:build race

package pst

// raceEnabled reports whether the race detector is active; alloc-count
// gates skip under it because sync.Pool deliberately bypasses its cache
// in race mode.
const raceEnabled = true
