//go:build !race

package index

// raceEnabled: see race_test.go.
const raceEnabled = false
