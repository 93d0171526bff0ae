//go:build race

package index

// raceEnabled: the race detector's instrumentation allocates, so exact
// allocation counts hold only without it.
const raceEnabled = true
