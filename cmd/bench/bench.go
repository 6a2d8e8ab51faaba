package main

import (
	"os"
	"runtime"
	"time"
)

// Journal settings of the two workloads that persist their work.
const (
	journalShards = 2
	groupCommit   = 2 * time.Millisecond
)

// setupBatch is how many extra set-ups a run samples before each round
// and after the last, time allowing: millisecond set-ups need many samples
// to repeat, and spreading them over the run keeps one burst on the host
// from slowing them all.
const setupBatch = 20

// env is what a run was asked for.
type env struct {
	seed    uint64
	seconds float64 // timed rounds go on until this much wall time has passed...
	reps    int     // ...and at least this many have run
	workers int     // worker goroutines and client connections
	tmp     string  // root for journals and artifacts
	short   bool    // test-sized inputs
}

// scratch makes an empty directory under the run's temporary root.
func (e *env) scratch(prefix string) (string, error) {
	return os.MkdirTemp(e.tmp, prefix)
}

// roundStats is one set-up and the ops it served.
type roundStats struct {
	setup   time.Duration
	ops     int
	failed  int             // ops that errored or produced the wrong output
	latency []time.Duration // per op (one per round where ops cannot be told apart)
	events  uint64          // simulated events across the ops
	use     usage           // the timed section: all ops, no set-up
	keep    any             // what a caller of the system would still hold
	release func() error    // tears the round's system down; nil when there is none
}

// done releases what the round left running.
func (r *roundStats) done() error {
	if r == nil || r.release == nil {
		return nil
	}
	err := r.release()
	r.release = nil
	return err
}

// A workload is one set of inputs. Each round sets the system up afresh
// and runs ops on it; for a simulation a round is one op, for the service
// and the sweep a batch.
type workload interface {
	// warmup generates the inputs, lets heap and caches settle, and fixes
	// the output every timed op is checked against.
	warmup(e *env) error
	// setup does a round's set-up alone, undoes it, and returns its time.
	setup(e *env) (time.Duration, error)
	// round records spans into log when it is non-nil.
	round(e *env, log *spanLog) (*roundStats, error)
	// layers turns an untraced and a traced round into per-layer metrics.
	layers(e *env, plain, traced *roundStats, log *spanLog) (metricSet, error)
	// digest identifies the checked output, for comparing two commits.
	digest() string
}

// outcome is one pass over one workload.
type outcome struct {
	metrics           metricSet
	attempted, failed int
}

// measure is the untraced pass: the end-to-end metrics. Rounds repeat one
// measurement, and what disturbs them on a shared host (a neighbour's burst
// lasting seconds) only ever slows a round down. So a run reports, of its
// rounds, the quartile on the undisturbed side: a burst has to cover three
// quarters of the run to move it, where it moves a median by covering half.
func measure(w workload, e *env) (*outcome, error) {
	out := &outcome{metrics: metricSet{}}
	base := liveHeap() // what the harness itself holds, earlier workloads included
	var setup, latency, rate, cpu, alloc []float64
	sampleSetup := func() error {
		t0 := time.Now()
		for n := 0; n < setupBatch && time.Since(t0).Seconds() < e.seconds/20; n++ {
			d, err := w.setup(e)
			if err != nil {
				return err
			}
			setup = append(setup, seconds(d))
		}
		return nil
	}
	var last *roundStats
	start := time.Now()
	for n := 0; n < e.reps || time.Since(start).Seconds() < e.seconds; n++ {
		if err := last.done(); err != nil {
			return nil, err
		}
		last = nil // the round before must not count as live in the next one
		if err := sampleSetup(); err != nil {
			return nil, err
		}
		runtime.GC()
		r, err := w.round(e, nil)
		if err != nil {
			return nil, err
		}
		last = r
		out.attempted += r.ops
		out.failed += r.failed
		setup = append(setup, seconds(r.setup))
		latency = append(latency, quantile(durations(r.latency, millis), 0.5))
		rate = append(rate, float64(r.events)/seconds(r.use.wall))
		cpu = append(cpu, seconds(r.use.cpu)/float64(r.ops))
		alloc = append(alloc, float64(r.use.alloc)/mb/float64(r.ops))
	}
	// The last round's system is still up: a server that has served its
	// sessions, a grid that has settled its cells, a finished Session.
	heap := liveHeap()
	runtime.KeepAlive(last.keep)
	if err := last.done(); err != nil {
		return nil, err
	}
	if err := sampleSetup(); err != nil {
		return nil, err
	}
	m := out.metrics
	m.set("setup_s", quantile(setup, 0.25), len(setup))
	m.set("op_latency_ms", quantile(latency, 0.25), out.attempted)
	m.set("events_per_s", -quantile(negated(rate), 0.25), len(rate))
	m.set("cpu_s_per_op", quantile(cpu, 0.25), len(cpu))
	m.set("alloc_mb_per_op", quantile(alloc, 0.5), len(alloc))
	m.set("live_heap_mb", float64(heap-base)/mb, 1)
	return out, nil
}

func negated(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = -x
	}
	return out
}

// profile is the traced pass: one untraced round for the counters and the
// baseline, one traced round for the spans, then the replays.
func profile(w workload, e *env) (*outcome, *spanLog, error) {
	runtime.GC()
	plain, err := w.round(e, nil)
	if err != nil {
		return nil, nil, err
	}
	if err := plain.done(); err != nil {
		return nil, nil, err
	}
	runtime.GC()
	log := newSpanLog()
	traced, err := w.round(e, log)
	if err != nil {
		return nil, nil, err
	}
	if err := traced.done(); err != nil {
		return nil, nil, err
	}
	m, err := w.layers(e, plain, traced, log)
	if err != nil {
		return nil, nil, err
	}
	out := &outcome{metrics: m, attempted: plain.ops + traced.ops, failed: plain.failed + traced.failed}
	m.set("bench.ops", float64(out.attempted), 1)
	m.set("bench.failed_ops", float64(out.failed), 1)
	return out, log, nil
}
