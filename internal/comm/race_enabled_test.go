//go:build race

package comm

// raceEnabled reports whether the race detector instruments this build.
// Performance floors are not asserted under the detector: its per-access
// instrumentation compresses the packed/general ratio the floor checks.
const raceEnabled = true
