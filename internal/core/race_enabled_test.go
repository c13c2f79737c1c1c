//go:build race

package core

// raceEnabled reports whether the race detector instruments this
// binary. Its instrumentation allocates, and sync.Pool drops puts at
// random under it, so allocation-count assertions are meaningless.
const raceEnabled = true
