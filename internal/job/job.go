// Package job defines the workload model: jobs, their applications
// (phases and tasks), performance models, workload files, synthetic
// workload generation, and standard-workload-format (SWF) traces.
//
// The taxonomy follows Feitelson's classification, which ElastiSim adopts:
//
//   - rigid: the user fixes the node count; it never changes.
//   - moldable: the scheduler picks the node count at start; it never
//     changes afterwards.
//   - malleable: the scheduler may change the node count while the job
//     runs, but only at application-exposed scheduling points.
//   - evolving: the application itself requests allocation changes at
//     runtime; the scheduler grants or rejects them.
package job

import (
	"fmt"
	"math"
	"strconv"
)

// Type classifies a job's flexibility.
type Type string

// The four job flexibility classes.
const (
	Rigid     Type = "rigid"
	Moldable  Type = "moldable"
	Malleable Type = "malleable"
	Evolving  Type = "evolving"
)

// Adaptive reports whether the job's allocation may change after start.
func (t Type) Adaptive() bool { return t == Malleable || t == Evolving }

// Valid reports whether t is one of the four classes.
func (t Type) Valid() bool {
	switch t {
	case Rigid, Moldable, Malleable, Evolving:
		return true
	}
	return false
}

// ID identifies a job within a workload.
type ID int

// Job is one entry of a workload.
type Job struct {
	// ID is assigned by the workload loader (dense, starting at 0).
	ID ID
	// Name is an optional human-readable label.
	Name string
	// Type is the flexibility class.
	Type Type
	// SubmitTime is when the job enters the queue, in seconds.
	SubmitTime float64
	// NumNodes is the requested node count for rigid jobs.
	NumNodes int
	// NumNodesMin/NumNodesMax bound the allocation for non-rigid jobs.
	NumNodesMin int
	NumNodesMax int
	// WallTimeLimit is the user's runtime estimate in seconds (0 = none).
	// Backfilling schedulers rely on it; the engine kills jobs exceeding it.
	WallTimeLimit float64
	// Args are user-defined variables visible to all of the job's
	// performance-model expressions.
	Args map[string]float64
	// App is the application model executed when the job runs.
	App *Application
	// ReconfigCost models the time (seconds) one reconfiguration takes,
	// with num_nodes_old/num_nodes_new in scope. Nil means reconfiguration
	// is free.
	ReconfigCost *Model
	// CheckpointInterval models the target time (seconds) between
	// program-counter checkpoints taken at iteration boundaries: after a
	// node failure, only work since the last checkpoint is redone. Nil
	// means no checkpoints (a failed job restarts from the beginning);
	// an interval of 0 checkpoints every iteration.
	CheckpointInterval *Model
	// Dependencies lists jobs that must finish (complete or be killed —
	// "afterany" semantics) before this job becomes schedulable. The
	// dependency graph must be acyclic.
	Dependencies []ID
	// User attributes the job to an account for fair-share scheduling
	// (optional).
	User string
}

// Label returns the job's name, or a synthesized one.
func (j *Job) Label() string {
	if j.Name != "" {
		return j.Name
	}
	return "job" + strconv.Itoa(int(j.ID))
}

// MinNodes returns the smallest allocation the job accepts.
func (j *Job) MinNodes() int {
	if j.Type == Rigid {
		return j.NumNodes
	}
	return j.NumNodesMin
}

// MaxNodes returns the largest allocation the job accepts.
func (j *Job) MaxNodes() int {
	if j.Type == Rigid {
		return j.NumNodes
	}
	return j.NumNodesMax
}

// Validate checks the job against the given machine size.
func (j *Job) Validate(totalNodes int) error {
	if !j.Type.Valid() {
		return fmt.Errorf("job %s: unknown type %q", j.Label(), j.Type)
	}
	if math.IsNaN(j.SubmitTime) || math.IsInf(j.SubmitTime, 0) {
		return fmt.Errorf("job %s: submit time %v is not a finite number", j.Label(), j.SubmitTime)
	}
	if j.SubmitTime < 0 {
		return fmt.Errorf("job %s: negative submit time", j.Label())
	}
	if math.IsNaN(j.WallTimeLimit) {
		return fmt.Errorf("job %s: walltime limit is NaN", j.Label())
	}
	if j.WallTimeLimit < 0 {
		return fmt.Errorf("job %s: negative walltime limit", j.Label())
	}
	switch j.Type {
	case Rigid:
		if j.NumNodes <= 0 {
			return fmt.Errorf("job %s: rigid job needs num_nodes >= 1", j.Label())
		}
		if j.NumNodes > totalNodes {
			return fmt.Errorf("job %s: requests %d nodes, machine has %d", j.Label(), j.NumNodes, totalNodes)
		}
	default:
		if j.NumNodesMin <= 0 || j.NumNodesMax < j.NumNodesMin {
			return fmt.Errorf("job %s: invalid node range [%d,%d]", j.Label(), j.NumNodesMin, j.NumNodesMax)
		}
		if j.NumNodesMin > totalNodes {
			return fmt.Errorf("job %s: minimum %d nodes exceeds machine size %d", j.Label(), j.NumNodesMin, totalNodes)
		}
	}
	if j.App == nil || len(j.App.Phases) == 0 {
		return fmt.Errorf("job %s: empty application", j.Label())
	}
	if err := j.App.Validate(j.hasVar); err != nil {
		return fmt.Errorf("job %s: %w", j.Label(), err)
	}
	if j.ReconfigCost != nil {
		if err := j.ReconfigCost.Validate(j.hasReconfigVar); err != nil {
			return fmt.Errorf("job %s: reconfig cost: %w", j.Label(), err)
		}
	}
	if j.CheckpointInterval != nil {
		if err := j.CheckpointInterval.Validate(j.hasVar); err != nil {
			return fmt.Errorf("job %s: checkpoint interval: %w", j.Label(), err)
		}
	}
	return nil
}

// hasVar reports whether name is in scope in the job's expressions: one of
// the variables the engine provides to every expression, or one of the
// job's own arguments.
func (j *Job) hasVar(name string) bool {
	switch name {
	case "num_nodes", "total_nodes", "iteration", "iterations", "phase", "walltime":
		return true
	}
	_, ok := j.Args[name]
	return ok
}

// hasReconfigVar is hasVar for the reconfiguration cost, which also sees
// the allocation size before and after the change.
func (j *Job) hasReconfigVar(name string) bool {
	return name == "num_nodes_old" || name == "num_nodes_new" || j.hasVar(name)
}
