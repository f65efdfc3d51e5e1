//go:build race

package perfbench

// raceEnabled reports whether the race detector is compiled in;
// TestDefenseOverheadBounded does not judge its timing ratio under it
// (instrumentation inflates the defended round more than the plain one).
const raceEnabled = true
