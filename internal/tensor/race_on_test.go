//go:build race

package tensor

// raceEnabled reports a -race build, where sync.Pool deliberately drops
// Puts and allocation counts are not deterministic.
const raceEnabled = true
