package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// KernelStats are the DES kernel's lifetime counters.
type KernelStats struct {
	Scheduled uint64 `json:"scheduled"`  // sequence numbers issued, including those the fluid pool reserves
	Fired     uint64 `json:"fired"`      // events popped and executed
	Cancelled uint64 `json:"cancelled"`  // events removed before firing
	Recycled  uint64 `json:"recycled"`   // events reused from the free list
	PeakQueue int    `json:"peak_queue"` // high-water mark of live events queued
}

// SolverStats are the fluid solver's counters.
type SolverStats struct {
	Solves           uint64 `json:"solves"`
	SolvedActivities uint64 `json:"solved_activities"`
}

// SchedulerStats count scheduler invocations and decision outcomes.
type SchedulerStats struct {
	Invocations uint64 `json:"invocations"`
	// Elided counts same-timestamp invocations the engine batched away
	// because a prior invocation at that timestamp already saw a
	// bit-identical snapshot.
	Elided   uint64            `json:"elided,omitempty"`
	Applied  uint64            `json:"applied"`
	Rejected uint64            `json:"rejected"`
	ByKind   map[string]uint64 `json:"by_kind,omitempty"`
}

// WallStats hold wall-clock measurements in nanoseconds. They are the only
// non-deterministic fields in a Snapshot; StripWall zeroes them for
// reproducibility comparisons.
type WallStats struct {
	RunNS       int64 `json:"run_ns"`
	SchedulerNS int64 `json:"scheduler_ns"`
}

// MemStats hold heap measurements sampled at snapshot time. Like
// WallStats they are machine-dependent and cleared by StripWall.
type MemStats struct {
	HeapAllocBytes uint64 `json:"heap_alloc_bytes"`
	TotalAllocs    uint64 `json:"total_allocs"`
}

// Snapshot is the self-profiling artifact of one or more simulation runs:
// every internal counter the simulator keeps, in one JSON-serializable
// record. Snapshots from parallel workers aggregate with Add.
type Snapshot struct {
	Runs      int            `json:"runs"`
	Jobs      int            `json:"jobs"`
	Kernel    KernelStats    `json:"kernel"`
	Solver    SolverStats    `json:"solver"`
	Scheduler SchedulerStats `json:"scheduler"`
	Wall      WallStats      `json:"wall"`
	Mem       MemStats       `json:"mem"`
}

// Add folds another snapshot into s: counters sum, gauges take the max.
func (s *Snapshot) Add(o Snapshot) {
	s.Runs += o.Runs
	s.Jobs += o.Jobs
	s.Kernel.Scheduled += o.Kernel.Scheduled
	s.Kernel.Fired += o.Kernel.Fired
	s.Kernel.Cancelled += o.Kernel.Cancelled
	s.Kernel.Recycled += o.Kernel.Recycled
	if o.Kernel.PeakQueue > s.Kernel.PeakQueue {
		s.Kernel.PeakQueue = o.Kernel.PeakQueue
	}
	s.Solver.Solves += o.Solver.Solves
	s.Solver.SolvedActivities += o.Solver.SolvedActivities
	s.Scheduler.Invocations += o.Scheduler.Invocations
	s.Scheduler.Elided += o.Scheduler.Elided
	s.Scheduler.Applied += o.Scheduler.Applied
	s.Scheduler.Rejected += o.Scheduler.Rejected
	for k, v := range o.Scheduler.ByKind {
		if s.Scheduler.ByKind == nil {
			s.Scheduler.ByKind = map[string]uint64{}
		}
		s.Scheduler.ByKind[k] += v
	}
	s.Wall.RunNS += o.Wall.RunNS
	s.Wall.SchedulerNS += o.Wall.SchedulerNS
	if o.Mem.HeapAllocBytes > s.Mem.HeapAllocBytes {
		s.Mem.HeapAllocBytes = o.Mem.HeapAllocBytes
	}
	s.Mem.TotalAllocs += o.Mem.TotalAllocs
}

// StripWall returns a copy with all wall-clock and memory fields zeroed,
// leaving only the deterministic simulation counters.
func (s Snapshot) StripWall() Snapshot {
	s.Wall = WallStats{}
	s.Mem = MemStats{}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// ReadSnapshot parses a snapshot previously written with WriteJSON.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("telemetry: parse snapshot: %w", err)
	}
	return s, nil
}

// DiffRow is one counter's before/after pair in a snapshot diff.
type DiffRow struct {
	Name   string
	A, B   float64
	Change float64 // relative change, B/A - 1; 0 when A == 0
}

// Diff flattens two snapshots into comparable rows, one per counter, in a
// stable order. Rows where both sides are zero are omitted.
func Diff(a, b Snapshot) []DiffRow {
	flat := func(s Snapshot) map[string]float64 {
		m := map[string]float64{
			"runs":                     float64(s.Runs),
			"jobs":                     float64(s.Jobs),
			"kernel.scheduled":         float64(s.Kernel.Scheduled),
			"kernel.fired":             float64(s.Kernel.Fired),
			"kernel.cancelled":         float64(s.Kernel.Cancelled),
			"kernel.recycled":          float64(s.Kernel.Recycled),
			"kernel.peak_queue":        float64(s.Kernel.PeakQueue),
			"solver.solves":            float64(s.Solver.Solves),
			"solver.solved_activities": float64(s.Solver.SolvedActivities),
			"scheduler.invocations":    float64(s.Scheduler.Invocations),
			"scheduler.elided":         float64(s.Scheduler.Elided),
			"scheduler.applied":        float64(s.Scheduler.Applied),
			"scheduler.rejected":       float64(s.Scheduler.Rejected),
			"wall.run_ms":              float64(s.Wall.RunNS) / 1e6,
			"wall.scheduler_ms":        float64(s.Wall.SchedulerNS) / 1e6,
			"mem.heap_alloc_bytes":     float64(s.Mem.HeapAllocBytes),
			"mem.total_allocs":         float64(s.Mem.TotalAllocs),
		}
		for k, v := range s.Scheduler.ByKind {
			m["scheduler.by_kind."+k] = float64(v)
		}
		return m
	}
	fa, fb := flat(a), flat(b)
	names := make([]string, 0, len(fa))
	seen := map[string]bool{}
	for k := range fa {
		names = append(names, k)
		seen[k] = true
	}
	for k := range fb {
		if !seen[k] {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	var rows []DiffRow
	for _, name := range names {
		va, vb := fa[name], fb[name]
		if va == 0 && vb == 0 {
			continue
		}
		row := DiffRow{Name: name, A: va, B: vb}
		if va != 0 {
			row.Change = vb/va - 1
		}
		rows = append(rows, row)
	}
	return rows
}
