//go:build !race

package fluid

const raceEnabled = false
