package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress is the sink interface the engine drives with live progress:
// Tick is called from the event loop every EveryEvents fired events, and
// Done exactly once when the run finalizes. Implementations decide what a
// tick means — RunProgress renders a terminal status line, ProgressFanOut
// re-broadcasts to any number of concurrent subscribers.
//
// Tick and Done are always called from the single goroutine driving the
// simulation; implementations that are read from other goroutines (like
// ProgressFanOut) must do their own locking.
type Progress interface {
	Tick(simT float64, events uint64)
	Done()
}

// RunProgress is an opt-in live ticker for one simulation run. The DES
// kernel calls Tick every EveryEvents fired events; RunProgress rate-limits
// actual terminal writes to Interval of wall-clock time and reports
// simulated time plus events/second to W (conventionally stderr).
//
// Progress output is wall-clock driven and goes to a side channel, so it
// never perturbs simulation outputs.
type RunProgress struct {
	W        io.Writer
	Interval time.Duration // min wall time between writes (default 500ms)
	Label    string        // optional prefix, e.g. the run's name

	start    time.Time
	lastWall time.Time
	lastEv   uint64
	wrote    bool
}

// EveryEvents is the kernel-side sampling stride for progress callbacks:
// coarse enough to stay off the hot path, fine enough for sub-second
// updates on realistic event rates.
const EveryEvents = 4096

// Tick reports progress at simulated time simT after events fired events.
// Writes are throttled to Interval.
func (p *RunProgress) Tick(simT float64, events uint64) {
	now := time.Now()
	if p.start.IsZero() {
		p.start, p.lastWall, p.lastEv = now, now, events
		return
	}
	interval := p.Interval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	if now.Sub(p.lastWall) < interval {
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

// ProgressFanOut distributes one engine progress stream to any number of
// concurrent subscribers, so a Peek-polling HTTP handler and an SSE stream
// can observe the same session without racing. The engine calls Tick/Done
// from the simulation goroutine; Subscribe and Last may be called from any
// goroutine at any point in the run's lifetime.
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

// Done broadcasts a final update (carrying the last sampled clock) and
// closes every subscriber channel. Further Subscribe calls yield the final
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
