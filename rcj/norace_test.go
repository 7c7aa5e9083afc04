//go:build !race

package rcj

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
