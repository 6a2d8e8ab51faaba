//go:build race

package sched

// raceEnabled reports that this binary was built with the race detector;
// the allocation pin skips itself there.
const raceEnabled = true
