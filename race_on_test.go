//go:build race

package netrel

// raceDetectorEnabled reports whether the race detector is compiled in;
// wall-clock benchmark measurements are skipped under it (5–10× slowdown
// makes them both meaningless and liable to blow the package test timeout).
const raceDetectorEnabled = true
