package core

import (
	"slices"
	"sort"

	"repro/internal/job"
	"repro/internal/sched"
)

// This file holds the engine's struct-of-arrays job-state kernel: an
// arena-allocated run table replacing the per-job heap allocations and the
// runs map, and tombstoned index lists replacing the shift-remove pending
// and running slices. Together they turn the per-job bookkeeping that
// dominated million-job simulations — one allocation plus one map insert
// per submit, an O(n) scan per queue removal — into amortised O(1)
// operations on dense memory, sized by the jobs live at once rather than
// by the length of the workload.

// runChunk is the arena's allocation granularity: one make([]jobRun)
// serves this many runs.
const runChunk = 2048

// runTable owns every live jobRun of a simulation, indexed by job ID —
// through a dense slice when the workload's IDs are compact (the invariant
// ParseWorkload and Workload.Sort establish), through a map for
// hand-assembled workloads with arbitrary IDs.
//
// A run that finishes (Engine.finish) gives its slot back: the slot goes
// onto a free list that alloc takes from before it carves a new chunk, so
// the arena holds at most the peak number of live runs plus one chunk.
// What outlives the run is one done bit per ID — a bitset beside the dense
// index, a nil entry in the sparse map — which is all that decision
// validation and dependency checks ask of a finished job. Runs that end
// any other way (killed while queued or held, dropped after a node
// failure) keep their slot: a held job is still listed among its
// dependencies' dependents, and a reused slot would take its place there.
type runTable struct {
	chunk []jobRun  // the uncarved rest of the newest chunk
	free  []*jobRun // released slots, reused first
	slots int       // slots carved so far
	total int       // workload size; bounds the arena
	live  int       // runs allocated and not released
	peak  int       // the most runs live at once

	dense  []*jobRun
	done   []uint64 // with dense: bit id is set once id's run was released
	sparse map[job.ID]*jobRun
}

func newRunTable(w *job.Workload) *runTable {
	t := &runTable{total: len(w.Jobs)}
	if maxID, ok := w.CompactIDs(); ok {
		t.dense = make([]*jobRun, int(maxID)+1)
		t.done = make([]uint64, (int(maxID)+64)/64)
	} else {
		t.sparse = make(map[job.ID]*jobRun, len(w.Jobs))
	}
	return t
}

// alloc gives j a run, reusing a released slot when there is one and
// carving one out of the arena otherwise, and indexes it. A slot keeps
// its task-completion callback across occupants (see jobRun.onTaskDone).
func (t *runTable) alloc(j *job.Job) *jobRun {
	var jr *jobRun
	if n := len(t.free); n > 0 {
		jr = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		if len(t.chunk) == 0 {
			size := runChunk
			if rest := t.total - t.slots; rest > 0 && rest < size {
				size = rest
			}
			t.chunk = make([]jobRun, size)
			t.slots += size
		}
		jr = &t.chunk[0]
		t.chunk = t.chunk[1:]
	}
	*jr = jobRun{view: sched.NewJobView(j), owner: ownerKey(j.ID), listPos: -1, onTaskDone: jr.onTaskDone}
	if t.dense != nil {
		t.dense[j.ID] = jr
	} else {
		t.sparse[j.ID] = jr
	}
	t.live++
	t.peak = max(t.peak, t.live)
	return jr
}

// release returns a finished run's slot to the free list and records its
// job as done. The caller guarantees nothing references the run any more:
// no event, activity, list or dependents entry.
func (t *runTable) release(jr *jobRun) {
	id := jr.view.Job.ID
	if t.dense != nil {
		t.dense[id] = nil
		t.done[id/64] |= 1 << (id % 64)
	} else {
		t.sparse[id] = nil
	}
	t.free = append(t.free, jr)
	t.live--
}

// get returns the live run for id, or nil before its submission and after
// its run was released.
func (t *runTable) get(id job.ID) *jobRun {
	if t.dense != nil {
		if int(id) >= len(t.dense) || id < 0 {
			return nil
		}
		return t.dense[id]
	}
	return t.sparse[id]
}

// finished reports whether id reached its terminal state: its run was
// released, or is still held in the done state.
func (t *runTable) finished(id job.ID) bool {
	if jr := t.get(id); jr != nil {
		return jr.state == stateDone
	}
	if t.dense != nil {
		return id >= 0 && int(id) < len(t.dense) && t.done[id/64]&(1<<(id%64)) != 0
	}
	jr, ok := t.sparse[id]
	return ok && jr == nil
}

// forEachByID visits every live run in ascending job-ID order
// (deterministic regardless of the index representation).
func (t *runTable) forEachByID(fn func(*jobRun)) {
	if t.dense != nil {
		for _, jr := range t.dense {
			if jr != nil {
				fn(jr)
			}
		}
		return
	}
	ids := make([]int, 0, len(t.sparse))
	for id, jr := range t.sparse {
		if jr != nil {
			ids = append(ids, int(id))
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		fn(t.sparse[job.ID(id)])
	}
}

// runList is an order-preserving job list with O(1) removal: removing
// leaves a nil tombstone at the job's recorded position, and the list
// compacts in place — preserving order, unlike a swap-remove, because the
// snapshot handed to scheduling algorithms iterates it — once tombstones
// outnumber live entries. Iteration must skip nils.
//
// The list also keeps the slice of its jobs' views that invocations hand
// to the algorithm (see viewList).
type runList struct {
	items []*jobRun
	count int

	// views lists the live jobs' views in order, and at[i] is the
	// position in items views[i] was taken from. Both are current for
	// items[:synced]: an add lies beyond it, and a removal or compaction
	// pulls it back to the first position that changed.
	views  []*sched.JobView
	at     []int
	synced int
}

// add appends jr, recording its position for later O(1) removal. A job is
// in at most one list at a time (pending or running, never both), so one
// position field suffices.
func (l *runList) add(jr *jobRun) {
	jr.listPos = int32(len(l.items))
	l.items = append(l.items, jr)
	l.count++
}

// remove tombstones jr in O(1); absent jobs are a no-op.
func (l *runList) remove(jr *jobRun) {
	if jr.listPos < 0 {
		return
	}
	l.items[jr.listPos] = nil
	l.synced = min(l.synced, int(jr.listPos))
	jr.listPos = -1
	l.count--
	if holes := len(l.items) - l.count; holes > 64 && holes > l.count {
		l.compact()
	}
}

// compact squeezes out tombstones in place, preserving order.
func (l *runList) compact() {
	w := 0
	for _, jr := range l.items {
		if jr == nil {
			continue
		}
		jr.listPos = int32(w)
		l.items[w] = jr
		w++
	}
	clear(l.items[w:])
	l.items = l.items[:w]
	l.synced = 0
}

// viewList returns the live jobs' views in list order. The views live in
// the runs and are kept current at every state change, so the slice only
// changes with the membership, and only from the first position that
// changed since the last call: before it, the slice is kept as it is.
func (l *runList) viewList() []*sched.JobView {
	keep, _ := slices.BinarySearch(l.at, l.synced)
	l.views, l.at = l.views[:keep], l.at[:keep]
	for i := l.synced; i < len(l.items); i++ {
		if jr := l.items[i]; jr != nil {
			l.views = append(l.views, &jr.view)
			l.at = append(l.at, i)
		}
	}
	l.synced = len(l.items)
	return l.views
}
