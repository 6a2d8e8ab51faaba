package core

import (
	"fmt"
	"slices"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sched"
)

// apply validates and executes one scheduling decision. Errors mean the
// decision was rejected with no side effects. A decision of any kind that
// names a finished job is rejected before the kind is looked at: a run in
// the done state keeps fields a live job would act on (an evolving
// request, say), and a released run has no state at all.
func (e *Engine) apply(d sched.Decision) error {
	if e.runs.finished(d.Job) {
		return fmt.Errorf("job %s already finished", e.label(d.Job))
	}
	jr := e.runs.get(d.Job)
	if jr == nil {
		return fmt.Errorf("unknown job %d", d.Job)
	}
	switch d.Kind {
	case sched.DecisionStart:
		return e.applyStart(jr, d.NumNodes, d.Nodes)
	case sched.DecisionResize:
		return e.applyResizeDecision(jr, d.NumNodes)
	case sched.DecisionGrant:
		return e.applyGrant(jr, d.NumNodes)
	case sched.DecisionDeny:
		return e.applyDeny(jr)
	case sched.DecisionKill:
		return e.applyKill(jr)
	default:
		return fmt.Errorf("unknown decision kind %v", d.Kind)
	}
}

func (e *Engine) applyStart(jr *jobRun, n int, pinned []int) error {
	if jr.state != statePending {
		return fmt.Errorf("job %s is %s, not pending", jr.label(), jr.state)
	}
	j := jr.view.Job
	if len(pinned) > 0 && n == 0 {
		n = len(pinned)
	}
	if j.Type == job.Rigid {
		if n != j.NumNodes {
			return fmt.Errorf("rigid job %s started with %d nodes, requested %d", j.Label(), n, j.NumNodes)
		}
	} else if n < j.MinNodes() || n > j.MaxNodes() {
		return fmt.Errorf("job %s started with %d nodes outside [%d,%d]", j.Label(), n, j.MinNodes(), j.MaxNodes())
	}
	if n > e.alloc.Free() {
		return fmt.Errorf("job %s needs %d nodes, only %d free", j.Label(), n, e.alloc.Free())
	}
	var nodes []platform.NodeID
	if len(pinned) > 0 {
		// Explicit placement: the algorithm names the nodes.
		if len(pinned) != n {
			return fmt.Errorf("job %s: %d pinned nodes but num_nodes %d", j.Label(), len(pinned), n)
		}
		nodes = make([]platform.NodeID, 0, n)
		for _, id := range pinned {
			if id < 0 || id >= e.alloc.Total() {
				return fmt.Errorf("job %s: pinned node %d out of range", j.Label(), id)
			}
			if _, down := slices.BinarySearch(e.down, id); down {
				return fmt.Errorf("job %s: pinned node %d is down", j.Label(), id)
			}
			nodes = append(nodes, platform.NodeID(id))
		}
		if err := e.alloc.AllocateNodes(jr.owner, nodes); err != nil {
			return fmt.Errorf("job %s: pinned placement: %w", j.Label(), err)
		}
	} else {
		var err error
		nodes, err = e.alloc.Allocate(jr.owner, n)
		if err != nil {
			return err
		}
	}
	e.queue.remove(jr)
	e.start(jr, nodes)
	return nil
}

func (e *Engine) applyResizeDecision(jr *jobRun, n int) error {
	j := jr.view.Job
	if j.Type != job.Malleable {
		return fmt.Errorf("job %s is %s; only malleable jobs accept scheduler resizes", j.Label(), j.Type)
	}
	if jr.state != stateAtSchedPoint {
		return fmt.Errorf("job %s is not at a scheduling point", j.Label())
	}
	if n < j.MinNodes() || n > j.MaxNodes() {
		return fmt.Errorf("resize of %s to %d outside [%d,%d]", j.Label(), n, j.MinNodes(), j.MaxNodes())
	}
	cur := len(jr.nodes)
	if n == cur {
		return nil // no-op resize
	}
	if grow := n - cur; grow > 0 && grow > e.alloc.Free() {
		return fmt.Errorf("resize of %s to %d needs %d free nodes, have %d", j.Label(), n, grow, e.alloc.Free())
	}
	// Adjust the allocation immediately so nodes freed by a shrink are
	// available to later decisions in the same invocation; the
	// reconfiguration cost is charged when the job resumes.
	e.adjustAllocation(jr, n)
	jr.pendingResize = int32(cur) // remembers the old size for the cost model
	return nil
}

func (e *Engine) applyGrant(jr *jobRun, n int) error {
	j := jr.view.Job
	if j.Type != job.Evolving {
		return fmt.Errorf("job %s is %s; grants answer evolving requests", j.Label(), j.Type)
	}
	if jr.view.EvolvingRequest == 0 {
		return fmt.Errorf("job %s has no outstanding evolving request", j.Label())
	}
	if n < j.MinNodes() || n > j.MaxNodes() {
		return fmt.Errorf("grant of %d to %s outside [%d,%d]", n, j.Label(), j.MinNodes(), j.MaxNodes())
	}
	jr.grantedTarget = int32(n)
	// The request is answered: clear it so later invocations do not see a
	// stale outstanding request (and grant it twice).
	jr.view.EvolvingRequest = 0
	e.emit(jr, TraceEvent{Kind: EvGranted, To: n})
	// If the job is paused at a scheduling point right now, the pending
	// resume event will pick the grant up at this timestamp.
	return nil
}

func (e *Engine) applyDeny(jr *jobRun) error {
	if jr.view.Job.Type != job.Evolving {
		return fmt.Errorf("job %s is %s; deny answers evolving requests", jr.label(), jr.view.Job.Type)
	}
	if jr.view.EvolvingRequest == 0 {
		return fmt.Errorf("job %s has no outstanding evolving request", jr.label())
	}
	jr.view.EvolvingRequest = 0
	jr.grantedTarget = 0
	e.emit(jr, TraceEvent{Kind: EvDenied})
	return nil
}

func (e *Engine) applyKill(jr *jobRun) error {
	switch jr.state {
	case statePending, stateHeld:
		if jr.state == statePending {
			e.queue.remove(jr)
		}
		jr.setState(stateDone)
		e.rec.JobAbandoned(jr.rec, e.Now())
		e.emit(jr, TraceEvent{Kind: EvFinish, Status: metrics.StatusKilledScheduler, Pending: true})
		e.outstanding--
		e.markFinished(jr.view.Job.ID)
		return nil
	default:
		e.kill(jr, metrics.StatusKilledScheduler)
		return nil
	}
}

// label returns the label of a submitted job, whose run may have been
// released. Only rejections format it, so the workload scan for a
// released run is off every hot path.
func (e *Engine) label(id job.ID) string {
	if jr := e.runs.get(id); jr != nil {
		return jr.label()
	}
	jobs := e.workload.Jobs
	if i := int(id); i >= 0 && i < len(jobs) && jobs[i].ID == id {
		return jobs[i].Label()
	}
	for _, j := range jobs {
		if j.ID == id {
			return j.Label()
		}
	}
	return ownerKey(id)
}
