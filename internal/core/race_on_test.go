//go:build race

package core

// raceEnabled reports a -race build, whose instrumentation allocates and
// makes allocation counts meaningless.
const raceEnabled = true
