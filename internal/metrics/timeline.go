// Package metrics collects and summarizes batch-system statistics:
// per-job records (wait, turnaround, slowdown), cluster utilization
// timelines, Gantt traces, and the aggregate summaries the experiment
// harness prints.
package metrics

import (
	"fmt"
	"io"
	"slices"
	"sort"
)

// Timeline is a right-continuous step function of time, built by applying
// deltas at timestamps. It tracks quantities like "busy nodes" or "down
// nodes".
type Timeline struct {
	times  []float64
	values []float64 // value from times[i] (inclusive) until times[i+1]
	cur    float64
}

// Add applies a delta at time t. Calls must use non-decreasing t.
func (tl *Timeline) Add(t, delta float64) {
	if n := len(tl.times); n > 0 && t < tl.times[n-1] {
		panic(fmt.Sprintf("metrics: timeline update at %v before %v", t, tl.times[n-1]))
	}
	tl.cur += delta
	if n := len(tl.times); n > 0 && tl.times[n-1] == t {
		tl.values[n-1] = tl.cur
		return
	}
	tl.times = append(tl.times, t)
	tl.values = append(tl.values, tl.cur)
}

// grow makes room for n more change points.
func (tl *Timeline) grow(n int) {
	tl.times = slices.Grow(tl.times, n)
	tl.values = slices.Grow(tl.values, n)
}

// Set records an absolute value at time t.
func (tl *Timeline) Set(t, value float64) {
	tl.Add(t, value-tl.cur)
}

// Current returns the latest value.
func (tl *Timeline) Current() float64 { return tl.cur }

// Len returns the number of change points.
func (tl *Timeline) Len() int { return len(tl.times) }

// At returns the value at time t (0 before the first change point).
func (tl *Timeline) At(t float64) float64 {
	i := sort.SearchFloat64s(tl.times, t)
	// i is the first index with times[i] >= t.
	if i < len(tl.times) && tl.times[i] == t {
		return tl.values[i]
	}
	if i == 0 {
		return 0
	}
	return tl.values[i-1]
}

// Integral returns the integral of the step function over [a, b].
func (tl *Timeline) Integral(a, b float64) float64 {
	if b <= a || len(tl.times) == 0 {
		return 0
	}
	total := 0.0
	for i := range tl.times {
		segStart := tl.times[i]
		segEnd := b
		if i+1 < len(tl.times) {
			segEnd = tl.times[i+1]
		}
		lo := max(segStart, a)
		hi := min(segEnd, b)
		if hi > lo {
			total += tl.values[i] * (hi - lo)
		}
		if segStart >= b {
			break
		}
	}
	return total
}

// Mean returns the time-weighted average over [a, b].
func (tl *Timeline) Mean(a, b float64) float64 {
	if b <= a {
		return 0
	}
	return tl.Integral(a, b) / (b - a)
}

// Max returns the maximum value attained in [a, b].
func (tl *Timeline) Max(a, b float64) float64 {
	maxV := tl.At(a)
	for i, t := range tl.times {
		if t >= a && t < b && tl.values[i] > maxV {
			maxV = tl.values[i]
		}
	}
	return maxV
}

// Points returns the raw change points.
func (tl *Timeline) Points() []Point {
	out := make([]Point, len(tl.times))
	for i := range tl.times {
		out[i] = Point{T: tl.times[i], V: tl.values[i]}
	}
	return out
}

// Point is one (time, value) pair.
type Point struct {
	T float64 `json:"t"`
	V float64 `json:"v"`
}

// WriteCSV emits the change points as "time,value" rows.
func (tl *Timeline) WriteCSV(w io.Writer, header string) error {
	if _, err := fmt.Fprintf(w, "time,%s\n", header); err != nil {
		return err
	}
	for i := range tl.times {
		if _, err := fmt.Fprintf(w, "%g,%g\n", tl.times[i], tl.values[i]); err != nil {
			return err
		}
	}
	return nil
}
