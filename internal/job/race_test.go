//go:build race

package job

// raceEnabled reports that this binary was built with the race detector;
// the allocation pins skip themselves there.
const raceEnabled = true
