// Package sched defines the scheduling-algorithm interface and a library
// of algorithms: FCFS, EASY and conservative backfilling, SJF, and an
// adaptive policy that exercises malleability (expand/shrink at scheduling
// points) and evolving-request arbitration.
//
// The design mirrors ElastiSim's decoupling: the simulation engine invokes
// the algorithm with a full snapshot of the cluster and job states (either
// periodically, on events, or both), and the algorithm answers with a list
// of decisions. The engine validates every decision before applying it, so
// a buggy algorithm cannot corrupt simulation state.
package sched

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/job"
)

// State is a job's scheduling state as seen by algorithms.
type State int

// Job states visible to algorithms.
const (
	// StatePending: submitted, not yet started.
	StatePending State = iota
	// StateRunning: executing (possibly at a scheduling point).
	StateRunning
)

// JobView is the read-only view of one job handed to the algorithm (see
// Algorithm.Schedule for what read-only means here). Build one with
// NewJobView: it copies the job's immutable scheduling bounds (Type,
// MinNodes, MaxNodes, ReqNodes, WallTime) out of the Job, and the
// algorithms read those copies on their per-candidate paths instead of
// chasing Job. A zero-value view is not valid input to an algorithm.
type JobView struct {
	// ID is the job's identity, used in decisions.
	ID job.ID
	// Job is the immutable job description.
	Job *job.Job
	// Type is Job.Type.
	Type job.Type
	// MinNodes and MaxNodes are Job.MinNodes() and Job.MaxNodes(): the
	// allocation bounds (both the request, for a rigid job).
	MinNodes int
	MaxNodes int
	// ReqNodes is Job.NumNodes, the requested size (0 = no preference, for
	// a non-rigid job).
	ReqNodes int
	// WallTime is Job.WallTimeLimit, or +Inf when the job has none.
	WallTime float64
	// State is pending or running.
	State State
	// Nodes is the current allocation size (0 while pending).
	Nodes int
	// AtSchedulingPoint reports that the job is paused at a scheduling
	// point right now; Resize decisions are only legal in this state.
	AtSchedulingPoint bool
	// EvolvingRequest is the allocation size the application asked for
	// (0 = no outstanding request). Grant or Deny decisions answer it.
	EvolvingRequest int
	// SubmitTime and StartTime are simulation timestamps (StartTime is
	// meaningful only when running).
	SubmitTime float64
	StartTime  float64
	// ExpectedEnd estimates completion from the walltime limit
	// (+Inf when the job has no limit). Backfilling relies on it.
	ExpectedEnd float64
}

// NewJobView returns the pending view of j, with j's scheduling bounds
// copied into it. Callers set the running-state fields themselves.
func NewJobView(j *job.Job) JobView {
	wall := math.Inf(1)
	if j.WallTimeLimit > 0 {
		wall = j.WallTimeLimit
	}
	return JobView{
		ID:         j.ID,
		Job:        j,
		Type:       j.Type,
		MinNodes:   j.MinNodes(),
		MaxNodes:   j.MaxNodes(),
		ReqNodes:   j.NumNodes,
		WallTime:   wall,
		SubmitTime: j.SubmitTime,
	}
}

// Reason is a bitmask of why the scheduler was invoked.
type Reason uint

// Invocation reasons; multiple may be set when events coincide.
const (
	ReasonSubmit Reason = 1 << iota
	ReasonCompletion
	ReasonSchedulingPoint
	ReasonEvolvingRequest
	ReasonPeriodic
	// ReasonNodeDown fires when a node fails: jobs may have been killed,
	// requeued, or shrunk, and the failed node left the free pool.
	ReasonNodeDown
	// ReasonNodeUp fires when a failed node is repaired and returns to the
	// free pool.
	ReasonNodeUp
)

func (r Reason) String() string {
	var parts []string
	for _, e := range []struct {
		bit  Reason
		name string
	}{
		{ReasonSubmit, "submit"},
		{ReasonCompletion, "completion"},
		{ReasonSchedulingPoint, "scheduling-point"},
		{ReasonEvolvingRequest, "evolving-request"},
		{ReasonPeriodic, "periodic"},
		{ReasonNodeDown, "node-down"},
		{ReasonNodeUp, "node-up"},
	} {
		if r&e.bit != 0 {
			parts = append(parts, e.name)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Invocation is the cluster snapshot an algorithm schedules against.
type Invocation struct {
	// Now is the simulation time.
	Now float64
	// Reasons says which events triggered this invocation.
	Reasons Reason
	// Pending lists queued jobs in submission order.
	Pending []*JobView
	// Running lists executing jobs in start order.
	Running []*JobView
	// FreeNodes and TotalNodes describe the machine.
	FreeNodes  int
	TotalNodes int
	// FreeList names the free nodes (ascending). Algorithms that care
	// about placement (locality on tree topologies) can pass explicit
	// nodes in start decisions. Materialising it costs O(total nodes) per
	// invocation, so the engine only populates it for algorithms that
	// declare they read it by implementing FreeListUser; for everyone else
	// it is nil.
	FreeList []int
	// GroupSize is the tree topology's nodes-per-leaf-switch (0 when the
	// network has no locality structure).
	GroupSize int
	// DownNodes lists failed nodes (ascending). Empty unless the platform
	// has a failure model. Down nodes are never in FreeList and start
	// decisions placing jobs on them are rejected.
	DownNodes []int
}

// DecisionKind discriminates decisions.
type DecisionKind int

// Decision kinds.
const (
	// DecisionStart launches a pending job on NumNodes nodes.
	DecisionStart DecisionKind = iota
	// DecisionResize changes a running adaptive job's allocation to
	// NumNodes. Legal only while the job is at a scheduling point.
	DecisionResize
	// DecisionGrant accepts an evolving request; NumNodes is the granted
	// size (it may differ from the requested size). Applied at the job's
	// next scheduling point.
	DecisionGrant
	// DecisionDeny rejects an outstanding evolving request.
	DecisionDeny
	// DecisionKill terminates a job (pending or running).
	DecisionKill
)

func (k DecisionKind) String() string {
	switch k {
	case DecisionStart:
		return "start"
	case DecisionResize:
		return "resize"
	case DecisionGrant:
		return "grant"
	case DecisionDeny:
		return "deny"
	case DecisionKill:
		return "kill"
	default:
		return fmt.Sprintf("DecisionKind(%d)", int(k))
	}
}

// Decision is one scheduling action. The engine applies decisions in order.
type Decision struct {
	Kind     DecisionKind
	Job      job.ID
	NumNodes int
	// Nodes optionally pins a start decision to specific nodes (they must
	// be free and count NumNodes). Empty lets the engine pick
	// (lowest-numbered free nodes first).
	Nodes []int
}

func (d Decision) String() string {
	return fmt.Sprintf("%s(job%d, %d)", d.Kind, d.Job, d.NumNodes)
}

// Start is shorthand for a start decision.
func Start(id job.ID, nodes int) Decision {
	return Decision{Kind: DecisionStart, Job: id, NumNodes: nodes}
}

// Resize is shorthand for a resize decision.
func Resize(id job.ID, nodes int) Decision {
	return Decision{Kind: DecisionResize, Job: id, NumNodes: nodes}
}

// Algorithm is a scheduling policy.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Schedule inspects the snapshot and returns decisions. The
	// Invocation, its slices and the JobViews they point to are read-only
	// and must not be retained: the views are the engine's own per-job
	// state, updated in place and handed to every later invocation, and
	// the slices are reused. An algorithm that needs different values
	// (planned sizes, a sorted order) works on copies. The engine does
	// not keep the returned slice past the call, so an algorithm may
	// reuse it on the next one.
	Schedule(inv *Invocation) []Decision
}

// FreeListUser is an optional Algorithm extension. Implementations that
// read Invocation.FreeList return true from WantsFreeList; the engine then
// pays the O(total nodes) cost of materialising the list every invocation.
// Algorithms not implementing the interface receive a nil FreeList.
type FreeListUser interface {
	WantsFreeList() bool
}

// SizeFunc picks the node count to start v with given free nodes, or 0
// if the job cannot start now. Implementations must return a size within
// the job's [min,max] bounds and at most free, or 0, and must depend only
// on v and free: backfill relies on this contract to skip, without
// calling the function, a candidate whose minimum exceeds the nodes it
// could use.
type SizeFunc func(v *JobView, free int) int

// RequestedSize starts a job at its preferred size (NumNodes, or the
// minimum if unset), the conservative choice.
func RequestedSize(v *JobView, free int) int {
	want := v.ReqNodes
	if want == 0 {
		want = v.MinNodes
	}
	return clampSize(v, free, want)
}

// MinSize starts a job at its minimum size.
func MinSize(v *JobView, free int) int { return clampSize(v, free, v.MinNodes) }

// MaxSize starts a job as large as currently fits (up to its maximum).
func MaxSize(v *JobView, free int) int { return clampSize(v, free, v.MaxNodes) }

// clampSize brings want within v's bounds and free, or returns 0 when v
// cannot start on free nodes. A rigid job gets its request or 0.
func clampSize(v *JobView, free, want int) int {
	if v.Type == job.Rigid {
		if v.ReqNodes <= free {
			return v.ReqNodes
		}
		return 0
	}
	if v.MinNodes > free {
		return 0
	}
	want = max(min(want, v.MaxNodes), v.MinNodes)
	return min(want, free) // still >= MinNodes, checked above
}

// EfficiencySizer returns a SizeFunc for moldable (and adaptive) jobs that
// picks the LARGEST size whose analytic parallel efficiency relative to
// the job's minimum stays at or above threshold — the textbook
// "efficiency-bounded" moldable policy. Rigid jobs keep their request;
// jobs whose models cannot be estimated fall back to the requested size.
func EfficiencySizer(ref job.PlatformRef, threshold float64) SizeFunc {
	return func(v *JobView, free int) int {
		if v.Type == job.Rigid {
			return RequestedSize(v, free)
		}
		if v.MinNodes > free {
			return 0
		}
		limit := min(v.MaxNodes, free)
		best := v.MinNodes
		for n := v.MinNodes + 1; n <= limit; n++ {
			eff, err := job.Efficiency(v.Job, n, ref)
			if err != nil {
				return RequestedSize(v, free)
			}
			if eff >= threshold {
				best = n
			}
		}
		return best
	}
}
