// Package des implements a deterministic discrete-event simulation kernel.
//
// The kernel maintains a virtual clock and a priority queue of events.
// Events scheduled for the same timestamp are ordered first by an explicit
// priority and then by insertion sequence, which makes simulations
// bit-reproducible across runs regardless of map iteration order or
// scheduling jitter in the host program.
//
// The pending-event store is a 4-ary index heap: every queued event knows
// its slot, so Cancel removes it at once in O(log n) and the queue holds
// live events only. Owners that hold the only reference to an event can
// additionally Release it once it has fired or been cancelled, letting the
// kernel recycle the allocation for a future Schedule.
//
// An owner that tracks many candidate events but keeps only one of them
// queued — the fluid solver holds one completion event per connected
// component, at its earliest finisher — takes each candidate's insertion
// sequence number with ReserveSeq when the candidate arises and enqueues
// the winner later with ScheduleReserved. The event then fires exactly
// where it would have had every candidate been scheduled, and cancelled,
// individually.
package des

import (
	"errors"
	"fmt"
	"math"
)

// Time is a point in virtual time, in seconds since simulation start.
type Time float64

// Infinity is a time later than any event the kernel will ever execute.
const Infinity = Time(math.MaxFloat64)

// Seconds returns the time as a plain float64 (seconds).
func (t Time) Seconds() float64 { return float64(t) }

func (t Time) String() string { return fmt.Sprintf("%.6fs", float64(t)) }

// Priority orders events that share a timestamp. Lower values run first.
type Priority int

// Well-known priorities used by the simulation engine. Keeping them in the
// kernel package lets every subsystem agree on intra-timestamp ordering.
const (
	// PriorityActivity is used for resource-activity completions. They run
	// before anything else at a timestamp so that job state is up to date
	// when the scheduler observes it.
	PriorityActivity Priority = -20
	// PriorityEngine is used for engine-internal bookkeeping events.
	PriorityEngine Priority = -10
	// PriorityDefault is the priority of ordinary events.
	PriorityDefault Priority = 0
	// PriorityScheduler is used for scheduler invocations, which must
	// observe all state changes that happen at the same timestamp.
	PriorityScheduler Priority = 10
)

// Handler is the callback attached to an event. It runs with the kernel
// clock set to the event's timestamp.
type Handler func()

// Event is a scheduled callback. Events are created by Kernel.Schedule and
// may be cancelled until they fire.
type Event struct {
	time     Time
	priority Priority
	seq      uint64
	index    int // position in the heap, -1 once fired or cancelled
	fn       Handler
	released bool // owner relinquished the pointer; recycle once detached
}

// Time returns the timestamp the event is scheduled for.
func (e *Event) Time() Time { return e.time }

// Cancelled reports whether the event was cancelled before firing (or has
// already fired).
func (e *Event) Cancelled() bool { return e.index < 0 }

// ErrStopped is returned by Run and RunUntil when the installed stop check
// (SetStopCheck) requested termination between events. The queue is left
// intact: the kernel can be resumed by calling Run again.
var ErrStopped = errors.New("des: simulation stopped by external request")

// slabMinPeak is the peak-queue size from which Schedule batch-allocates
// events: once a kernel has proven it queues hundreds of events, the free
// list is pre-sized from the peak counter so per-Schedule allocation
// amortises to (almost) zero. Small kernels keep the one-event-at-a-time
// behaviour, which also keeps allocation-identity semantics trivial for
// tests.
const slabMinPeak = 128

// Kernel is a discrete-event simulation driver. The zero value is not
// usable; create kernels with NewKernel.
type Kernel struct {
	now       Time
	queue     eventHeap
	seq       uint64
	steps     uint64
	maxTime   Time
	free      []*Event // released events ready for reuse by Schedule
	cancelled uint64
	recycled  uint64
	peakQueue int

	// Optional progress hook: onProgress runs every progressEvery fired
	// events. Zero progressEvery disables the check's body; the hot loop
	// pays one integer compare either way.
	progressEvery uint64
	onProgress    func()

	// Optional stop check: stopCheck is polled every stopEvery fired
	// events from Run/RunUntil; returning true stops the loop between
	// events with ErrStopped. Batching the poll keeps cancellation off the
	// hot path — the loop pays one integer compare per event when a check
	// is installed and nothing semantically observable when it never fires
	// (events execute in exactly the same order either way).
	stopEvery uint64
	stopCheck func() bool
}

// NewKernel returns an empty kernel with the clock at zero.
func NewKernel() *Kernel { return &Kernel{maxTime: Infinity} }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Steps returns the number of events executed so far. It is useful for
// simulator-performance experiments.
func (k *Kernel) Steps() uint64 { return k.steps }

// Pending returns the number of events queued.
func (k *Kernel) Pending() int { return len(k.queue.items) }

// KernelStats are the kernel's lifetime counters, for self-profiling.
type KernelStats struct {
	Scheduled uint64 // sequence numbers issued, including those the fluid pool reserves
	Fired     uint64 // events popped and executed
	Cancelled uint64 // events removed before firing
	Recycled  uint64 // Schedule calls served from the free list
	PeakQueue int    // high-water mark of live events queued
	Pending   int    // live events still queued at sample time
}

// Stats samples the kernel's counters.
func (k *Kernel) Stats() KernelStats {
	return KernelStats{
		Scheduled: k.seq,
		Fired:     k.steps,
		Cancelled: k.cancelled,
		Recycled:  k.recycled,
		PeakQueue: k.peakQueue,
		Pending:   k.Pending(),
	}
}

// SetProgress installs a callback invoked after every n fired events.
// n = 0 (or a nil fn) removes the hook.
func (k *Kernel) SetProgress(n uint64, fn func()) {
	if n == 0 || fn == nil {
		k.progressEvery, k.onProgress = 0, nil
		return
	}
	k.progressEvery, k.onProgress = n, fn
}

// SetStopCheck installs a cancellation probe polled every n fired events
// during Run/RunUntil. When fn reports true the loop returns ErrStopped
// with all remaining events queued, so execution can resume later.
// n = 0 (or a nil fn) removes the probe.
func (k *Kernel) SetStopCheck(n uint64, fn func() bool) {
	if n == 0 || fn == nil {
		k.stopEvery, k.stopCheck = 0, nil
		return
	}
	k.stopEvery, k.stopCheck = n, fn
}

// Schedule enqueues fn to run at absolute time t with the given priority.
// Scheduling in the past panics: it always indicates a simulation bug.
func (k *Kernel) Schedule(t Time, p Priority, fn Handler) *Event {
	return k.schedule(t, p, k.ReserveSeq(), fn, false)
}

// ReserveSeq consumes one insertion sequence number without enqueueing
// anything and returns it. A later ScheduleReserved at that number orders
// the event among same-(time, priority) peers as if it had been scheduled
// now. Reserved numbers count in KernelStats.Scheduled whether or not they
// are ever enqueued.
func (k *Kernel) ReserveSeq() uint64 {
	seq := k.seq
	k.seq++
	return seq
}

// ScheduleReserved enqueues fn at absolute time t under a sequence number
// previously returned by ReserveSeq. A number may be enqueued again after
// its event was cancelled; at most one live event may carry it. A number
// the kernel never issued, or a time in the past, panics.
func (k *Kernel) ScheduleReserved(t Time, p Priority, seq uint64, fn Handler) *Event {
	if seq >= k.seq {
		panic(fmt.Sprintf("des: sequence number %d was never reserved", seq))
	}
	return k.schedule(t, p, seq, fn, false)
}

// ScheduleTransient enqueues a fire-and-forget event: the caller gets no
// handle, must not cancel it, and the kernel recycles the allocation the
// moment the handler returns. Engine hot paths use it for the
// schedule-now bookkeeping events that dominate large simulations; with
// it, steady-state scheduling allocates nothing.
func (k *Kernel) ScheduleTransient(t Time, p Priority, fn Handler) {
	k.schedule(t, p, k.ReserveSeq(), fn, true)
}

// ScheduleTransientAfter is ScheduleTransient at now + d.
func (k *Kernel) ScheduleTransientAfter(d Time, p Priority, fn Handler) {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	k.schedule(k.now+d, p, k.ReserveSeq(), fn, true)
}

// schedule is the one enqueue path; seq is the event's tie-breaking
// insertion number, freshly reserved or handed back by ScheduleReserved.
func (k *Kernel) schedule(t Time, p Priority, seq uint64, fn Handler, transient bool) *Event {
	if t < k.now {
		panic(fmt.Sprintf("des: scheduling event at %v before now %v", t, k.now))
	}
	if fn == nil {
		panic("des: nil event handler")
	}
	var ev *Event
	if n := len(k.free); n > 0 {
		ev = k.free[n-1]
		k.free[n-1] = nil
		k.free = k.free[:n-1]
		*ev = Event{time: t, priority: p, seq: seq, fn: fn, released: transient}
		k.recycled++
	} else if k.peakQueue >= slabMinPeak {
		// Batch-allocate from one backing array, pre-sizing the free list
		// from the proven peak so the next thousands of Schedules hit it.
		batch := k.peakQueue / 4
		if batch > 4096 {
			batch = 4096
		}
		slab := make([]Event, batch)
		for i := batch - 1; i >= 1; i-- {
			k.free = append(k.free, &slab[i])
		}
		ev = &slab[0]
		*ev = Event{time: t, priority: p, seq: seq, fn: fn, released: transient}
	} else {
		ev = &Event{time: t, priority: p, seq: seq, fn: fn, released: transient}
	}
	k.queue.push(ev)
	if n := len(k.queue.items); n > k.peakQueue {
		k.peakQueue = n
	}
	return ev
}

// ScheduleAfter enqueues fn to run d seconds after the current time.
func (k *Kernel) ScheduleAfter(d Time, p Priority, fn Handler) *Event {
	if d < 0 {
		panic(fmt.Sprintf("des: negative delay %v", d))
	}
	return k.Schedule(k.now+d, p, fn)
}

// Cancel removes ev from the queue in O(log n). Cancelling an event that
// already fired or was cancelled is a no-op.
func (k *Kernel) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	k.queue.remove(ev)
	k.cancelled++
}

// Release hands an event's allocation back to the kernel for reuse. The
// caller asserts it holds the only remaining reference and will not touch
// the pointer again; the event must already be cancelled or fired.
// Releasing nil is a no-op.
func (k *Kernel) Release(ev *Event) {
	if ev == nil || ev.released {
		return
	}
	if ev.index >= 0 {
		panic("des: Release of a live scheduled event")
	}
	ev.released = true
	k.recycle(ev)
}

// recycle pushes a detached, released event onto the free list.
func (k *Kernel) recycle(ev *Event) {
	ev.fn = nil
	k.free = append(k.free, ev)
}

// SetHorizon limits Run to events at or before t. Events beyond the horizon
// remain queued.
func (k *Kernel) SetHorizon(t Time) { k.maxTime = t }

// Step executes the single earliest event. It returns false when the queue
// is empty or the next event lies beyond the horizon.
func (k *Kernel) Step() bool {
	if len(k.queue.items) == 0 || k.queue.items[0].time > k.maxTime {
		return false
	}
	ev := k.queue.pop()
	k.now = ev.time
	k.steps++
	if k.progressEvery != 0 && k.steps%k.progressEvery == 0 {
		k.onProgress()
	}
	fn := ev.fn
	fn()
	// A transient event goes straight back to the free list — but only if
	// the handler left it detached. The guards matter: the handler may
	// have Released it already (fn is then nil), or Released-and-reused
	// it via Schedule for a brand-new purpose, in which case it is live
	// in the queue again (index >= 0); recycling it here would alias one
	// Event between the free list and the pending queue.
	if ev.released && ev.index < 0 && ev.fn != nil {
		k.recycle(ev)
	}
	return true
}

// StepN executes up to n events and returns how many fired. Like Step it
// stops early at an empty queue or the horizon; unlike Run it
// never consults the stop check — the caller is the driver and decides
// between batches. StepN is the primitive session-style drivers build
// single-stepping and bounded bursts on.
func (k *Kernel) StepN(n int) int {
	fired := 0
	for fired < n && k.Step() {
		fired++
	}
	return fired
}

// Run executes events until the queue drains or the horizon is reached.
// It returns ErrStopped when an installed stop check (SetStopCheck) fired
// between events.
func (k *Kernel) Run() error {
	for k.Step() {
		if k.stopEvery != 0 && k.steps%k.stopEvery == 0 && k.stopCheck() {
			return ErrStopped
		}
	}
	return nil
}

// RunUntil executes events with time <= t and then advances the clock to t
// (if t is later than the last event executed). When the run is stopped
// early (by the stop check) the clock is NOT advanced: the simulation has
// not observably reached t and remains resumable.
func (k *Kernel) RunUntil(t Time) error {
	saved := k.maxTime
	if t > saved {
		t = saved // never run past an installed horizon
	}
	k.maxTime = t
	err := k.Run()
	k.maxTime = saved
	if err == nil && k.now < t {
		k.now = t
	}
	return err
}
