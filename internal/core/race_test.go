//go:build race

package core

// raceEnabled reports a -race build, which skips the largest exactness
// inputs (TestLatticeWitnessesMatchOracle) to keep the gate's run short.
const raceEnabled = true
