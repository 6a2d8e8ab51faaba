//go:build race

package fluid

// raceEnabled reports that this binary was built with the race detector;
// the allocation pin skips itself there.
const raceEnabled = true
