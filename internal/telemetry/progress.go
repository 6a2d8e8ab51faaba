package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// RunProgress renders one simulation run's progress as a terminal status
// line on W (conventionally stderr): simulated time, events, and the event
// rate since the previous tick. Its driver reads the run between slices and
// calls Tick at its own wall-clock cadence, then Done once. The line is a
// side channel: it never perturbs simulation outputs.
type RunProgress struct {
	W     io.Writer
	Label string // optional prefix, e.g. the run's name

	lastWall time.Time
	lastEv   uint64
	wrote    bool
}

// Tick reports progress at simulated time simT after events fired events.
// The first tick only starts the rate measurement.
func (p *RunProgress) Tick(simT float64, events uint64) {
	now := time.Now()
	if p.lastWall.IsZero() {
		p.lastWall, p.lastEv = now, events
		return
	}
	rate := float64(events-p.lastEv) / now.Sub(p.lastWall).Seconds()
	p.lastWall, p.lastEv = now, events
	label := p.Label
	if label != "" {
		label += " "
	}
	fmt.Fprintf(p.W, "\r%st=%.0fs events=%d (%.0f ev/s)   ", label, simT, events, rate)
	p.wrote = true
}

// Done terminates the progress line, if any was written.
func (p *RunProgress) Done() {
	if p.wrote {
		fmt.Fprintln(p.W)
	}
}

// ProgressUpdate is one sampled progress point of a running simulation.
type ProgressUpdate struct {
	// SimTime is the simulation clock in seconds at the sample.
	SimTime float64 `json:"sim_time"`
	// Events is the number of events executed so far.
	Events uint64 `json:"events"`
	// Done marks the final update of the run.
	Done bool `json:"done,omitempty"`
}

// ProgressFanOut distributes one run's progress stream to any number of
// concurrent subscribers, so several SSE streams can observe the same
// session without racing. The goroutine driving the run calls Tick after
// each slice it advances and Done once at the end; Subscribe may be called
// from any goroutine at any point in the run's lifetime.
//
// Subscribers receive updates on a buffered channel with latest-wins
// semantics: a slow consumer never blocks the simulation — stale updates
// are dropped in favour of the newest one. The channel is closed after the
// final (Done) update is delivered. A subscription taken after the run
// finished immediately yields the final update and closes.
type ProgressFanOut struct {
	mu   sync.Mutex
	subs map[int]chan ProgressUpdate
	next int
	last ProgressUpdate
	seen bool // at least one Tick or Done happened
	done bool
}

// Tick records and broadcasts a progress sample. It never blocks.
func (f *ProgressFanOut) Tick(simT float64, events uint64) {
	f.publish(ProgressUpdate{SimTime: simT, Events: events})
}

// Done re-broadcasts the last Tick as the final update and closes every
// subscriber channel. Further Subscribe calls yield the final
// update immediately.
func (f *ProgressFanOut) Done() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	f.done = true
	u := f.last
	u.Done = true
	f.last, f.seen = u, true
	for id, ch := range f.subs {
		f.send(ch, u)
		close(ch)
		delete(f.subs, id)
	}
}

func (f *ProgressFanOut) publish(u ProgressUpdate) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return
	}
	f.last, f.seen = u, true
	for _, ch := range f.subs {
		f.send(ch, u)
	}
}

// send delivers u to ch without ever blocking: when the buffer is full the
// oldest queued update is dropped to make room for the newest.
func (f *ProgressFanOut) send(ch chan ProgressUpdate, u ProgressUpdate) {
	for {
		select {
		case ch <- u:
			return
		default:
		}
		select {
		case <-ch:
		default:
		}
	}
}

// Subscribe registers a new subscriber with the given channel buffer
// (minimum 1) and returns its channel plus a cancel function. Cancel is
// idempotent and safe to call after the channel closed.
func (f *ProgressFanOut) Subscribe(buf int) (<-chan ProgressUpdate, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan ProgressUpdate, buf)
	f.mu.Lock()
	if f.done {
		f.mu.Unlock()
		ch <- f.last
		close(ch)
		return ch, func() {}
	}
	if f.subs == nil {
		f.subs = make(map[int]chan ProgressUpdate)
	}
	id := f.next
	f.next++
	f.subs[id] = ch
	if f.seen {
		f.send(ch, f.last)
	}
	f.mu.Unlock()
	cancel := func() {
		f.mu.Lock()
		if c, ok := f.subs[id]; ok {
			delete(f.subs, id)
			close(c)
		}
		f.mu.Unlock()
	}
	return ch, cancel
}

// CellProgress tracks completion of a fixed number of experiment cells
// (e.g. sweep points) across concurrent workers and prints done/total
// with an ETA extrapolated from the average cell wall time.
type CellProgress struct {
	W     io.Writer
	Total int

	mu    sync.Mutex
	start time.Time
	done  int
	wrote bool
}

// CellDone marks one cell finished and reprints the status line.
func (p *CellProgress) CellDone() {
	p.mu.Lock()
	defer p.mu.Unlock()
	now := time.Now()
	if p.start.IsZero() {
		p.start = now
	}
	p.done++
	elapsed := now.Sub(p.start)
	var eta time.Duration
	if p.done > 0 && p.done < p.Total {
		eta = time.Duration(float64(elapsed) / float64(p.done) * float64(p.Total-p.done))
	}
	fmt.Fprintf(p.W, "\rcells %d/%d elapsed=%s eta=%s   ",
		p.done, p.Total, elapsed.Round(time.Second), eta.Round(time.Second))
	p.wrote = true
}

// Done terminates the progress line, if any was written.
func (p *CellProgress) Done() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.wrote {
		fmt.Fprintln(p.W)
	}
}
