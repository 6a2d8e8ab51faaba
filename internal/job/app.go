package job

import (
	"fmt"
)

// TaskKind is the type of work a task performs.
type TaskKind string

// Task kinds supported by the application model.
const (
	// TaskCompute burns flops on every allocated node. The model yields the
	// PER-NODE flop count, so the scaling law is fully in the user's hands:
	// "work/num_nodes" is perfect scaling, "work*(f+(1-f)/num_nodes)" is
	// Amdahl-limited scaling with serial fraction f.
	TaskCompute TaskKind = "compute"
	// TaskComm moves bytes between the allocated nodes following Pattern.
	TaskComm TaskKind = "comm"
	// TaskRead reads bytes from the storage Target, striped over the
	// allocated nodes.
	TaskRead TaskKind = "read"
	// TaskWrite writes bytes to the storage Target.
	TaskWrite TaskKind = "write"
	// TaskDelay sleeps for a model-determined number of seconds
	// (library calls, license waits, ...); it occupies the allocation
	// without using platform resources.
	TaskDelay TaskKind = "delay"
	// TaskEvolvingRequest asks the scheduler for a new allocation size
	// (evolving jobs only). The request is asynchronous: the job keeps
	// running and a granted change is applied at the next scheduling point.
	TaskEvolvingRequest TaskKind = "evolving_request"
)

// CommPattern selects the traffic shape of a TaskComm.
type CommPattern string

// Communication patterns. The model translates each into per-node link
// loads; Bytes always denotes the payload size per node pair step, matching
// how applications report message sizes.
const (
	// PatternAllToAll: every node exchanges Bytes with every other node.
	// Per-node link traffic: Bytes * (n-1).
	PatternAllToAll CommPattern = "alltoall"
	// PatternAllReduce: ring allreduce of a Bytes-sized buffer. Per-node
	// link traffic: 2 * Bytes * (n-1)/n.
	PatternAllReduce CommPattern = "allreduce"
	// PatternRing: each node sends Bytes to its right neighbour. Per-node
	// link traffic: Bytes.
	PatternRing CommPattern = "ring"
	// PatternBroadcast: node 0 sends Bytes to every other node (binomial
	// tree; root link carries Bytes * ceil(log2 n)).
	PatternBroadcast CommPattern = "bcast"
	// PatternGather: every node sends Bytes to node 0 whose link carries
	// Bytes * (n-1).
	PatternGather CommPattern = "gather"
)

// IOTarget selects the storage tier of a TaskRead/TaskWrite.
type IOTarget string

// Storage tiers.
const (
	// TargetPFS is the shared parallel file system.
	TargetPFS IOTarget = "pfs"
	// TargetBB is the burst-buffer tier (node-local or shared, per the
	// platform).
	TargetBB IOTarget = "bb"
)

// Task is one step inside a phase. Tasks of a phase run sequentially on the
// job's current allocation.
type Task struct {
	// Kind selects the semantics.
	Kind TaskKind
	// Name is an optional label for traces.
	Name string
	// Model gives the task's magnitude: per-node flops for compute, payload
	// bytes for comm (per the pattern's definition), total bytes for I/O
	// (striped over the allocation), seconds for delay, and the desired
	// node count for evolving requests.
	Model *Model
	// Pattern applies to TaskComm.
	Pattern CommPattern
	// Target applies to TaskRead/TaskWrite.
	Target IOTarget
}

// Validate checks internal consistency; allowed reports whether a variable
// may appear in the model's expression.
func (t *Task) Validate(allowed func(name string) bool) error {
	if t.Model == nil {
		return fmt.Errorf("task %q: missing cost model", t.describe())
	}
	if err := t.Model.Validate(allowed); err != nil {
		return fmt.Errorf("task %q: %w", t.describe(), err)
	}
	switch t.Kind {
	case TaskCompute, TaskDelay, TaskEvolvingRequest:
		// No extra fields.
	case TaskComm:
		switch t.Pattern {
		case PatternAllToAll, PatternAllReduce, PatternRing, PatternBroadcast, PatternGather:
		case "":
			return fmt.Errorf("task %q: comm task needs a pattern", t.describe())
		default:
			return fmt.Errorf("task %q: unknown comm pattern %q", t.describe(), t.Pattern)
		}
	case TaskRead, TaskWrite:
		switch t.Target {
		case TargetPFS, TargetBB:
		case "":
			return fmt.Errorf("task %q: I/O task needs a target", t.describe())
		default:
			return fmt.Errorf("task %q: unknown I/O target %q", t.describe(), t.Target)
		}
	default:
		return fmt.Errorf("task %q: unknown kind %q", t.describe(), t.Kind)
	}
	return nil
}

func (t *Task) describe() string {
	if t.Name != "" {
		return t.Name
	}
	return string(t.Kind)
}

// Phase is a stage of the application. A phase's tasks run in order; a
// phase with Iterations > 1 repeats them. If SchedulingPoint is true, the
// job exposes a scheduling point after every iteration — the only places
// where malleable reconfigurations and evolving-request grants are applied.
type Phase struct {
	// Name labels the phase in traces.
	Name string
	// Iterations is how many times the task list runs (default 1).
	Iterations int
	// SchedulingPoint exposes a reconfiguration opportunity after each
	// iteration.
	SchedulingPoint bool
	// Tasks is the body of the phase.
	Tasks []Task
}

// Validate checks the phase; allowed is as for Task.Validate.
func (p *Phase) Validate(allowed func(name string) bool) error {
	if p.Iterations < 0 {
		return fmt.Errorf("phase %q: negative iterations", p.Name)
	}
	if len(p.Tasks) == 0 {
		return fmt.Errorf("phase %q: no tasks", p.Name)
	}
	for i := range p.Tasks {
		if err := p.Tasks[i].Validate(allowed); err != nil {
			return fmt.Errorf("phase %q: %w", p.Name, err)
		}
	}
	return nil
}

// EffectiveIterations returns Iterations with the default of 1 applied.
func (p *Phase) EffectiveIterations() int {
	if p.Iterations <= 0 {
		return 1
	}
	return p.Iterations
}

// Application is a job's behaviour: an ordered list of phases.
type Application struct {
	Phases []Phase
}

// Validate checks every phase; allowed is as for Task.Validate.
func (a *Application) Validate(allowed func(name string) bool) error {
	for i := range a.Phases {
		if err := a.Phases[i].Validate(allowed); err != nil {
			return fmt.Errorf("application phase %d: %w", i, err)
		}
	}
	return nil
}

// TotalSchedulingPoints counts the scheduling points the application
// exposes over its lifetime.
func (a *Application) TotalSchedulingPoints() int {
	total := 0
	for i := range a.Phases {
		p := &a.Phases[i]
		if p.SchedulingPoint {
			total += p.EffectiveIterations()
		}
	}
	return total
}

// HasEvolvingRequests reports whether any task issues evolving requests.
func (a *Application) HasEvolvingRequests() bool {
	for i := range a.Phases {
		for j := range a.Phases[i].Tasks {
			if a.Phases[i].Tasks[j].Kind == TaskEvolvingRequest {
				return true
			}
		}
	}
	return false
}
