package core

import (
	"fmt"
	"slices"

	"repro/internal/des"
	"repro/internal/failure"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sched"
)

// downOwner is the allocator owner key claiming failed nodes, so that the
// regular free-node accounting (Free, FreeNodes, Allocate) naturally
// excludes them without any special cases.
const downOwner = "__down__"

// scheduleOutage arms node's next failure event strictly after time t.
func (e *Engine) scheduleOutage(node int, t float64) {
	down, up, ok := e.injector.NextOutage(node, t)
	if !ok {
		return
	}
	e.kernel.ScheduleTransient(des.Time(down), des.PriorityEngine, func() {
		e.nodeFail(node, up)
	})
}

// nodeFail takes a node down until time up: the job running there (if any)
// is shrunk, requeued, or killed per the recovery policy, the node is
// claimed out of the free pool, and the scheduler is poked.
func (e *Engine) nodeFail(node int, up float64) {
	if e.outstanding == 0 {
		return // workload done: stop injecting events
	}
	now := e.Now()
	id := platform.NodeID(node)
	if jr := e.runOnNode(id); jr != nil {
		e.handleJobNodeFailure(jr, id)
	}
	if err := e.alloc.AllocateNodes(downOwner, []platform.NodeID{id}); err != nil {
		panic(fmt.Sprintf("core: marking node %d down: %v", node, err))
	}
	i, _ := slices.BinarySearch(e.down, node)
	e.down = slices.Insert(e.down, i, node)
	e.rec.NodeDown(node, now)
	e.traceNodeEvent(EvNodeDown, node, "")
	e.requestInvocation(sched.ReasonNodeDown)
	e.kernel.ScheduleTransient(des.Time(up), des.PriorityEngine, func() {
		e.nodeRepair(node)
	})
}

// nodeRepair returns a failed node to the free pool (as good as new) and
// arms its next outage while work remains.
func (e *Engine) nodeRepair(node int) {
	now := e.Now()
	id := platform.NodeID(node)
	if err := e.alloc.Release(downOwner, []platform.NodeID{id}); err != nil {
		panic(fmt.Sprintf("core: repairing node %d: %v", node, err))
	}
	i, _ := slices.BinarySearch(e.down, node)
	e.down = slices.Delete(e.down, i, i+1)
	e.rec.NodeUp(node, now)
	e.traceNodeEvent(EvNodeUp, node, "")
	e.requestInvocation(sched.ReasonNodeUp)
	if e.outstanding > 0 {
		e.scheduleOutage(node, now)
	}
}

// runOnNode finds the running job allocated the node, or nil.
func (e *Engine) runOnNode(id platform.NodeID) *jobRun {
	for _, jr := range e.running.items {
		if jr == nil {
			continue
		}
		for _, n := range jr.nodes {
			if n == id {
				return jr
			}
		}
	}
	return nil
}

// handleJobNodeFailure applies the recovery policy to a job losing one of
// its nodes: adaptive jobs shrink through the failure when the survivors
// still satisfy their minimum (shrink policy), everything else is killed
// and — unless the policy forbids it — requeued from its last checkpoint.
func (e *Engine) handleJobNodeFailure(jr *jobRun, id platform.NodeID) {
	policy := e.injector.Spec().EffectiveRecovery()
	if policy == failure.RecoverShrink && jr.view.Job.Type.Adaptive() && len(jr.nodes)-1 >= jr.view.Job.MinNodes() {
		e.shrinkThroughFailure(jr, id)
		return
	}
	e.killByNodeFailure(jr, policy != failure.RecoverKill)
}

// shrinkThroughFailure removes the failed node from the job's allocation
// and redoes the interrupted iteration on the survivors (graceful
// degradation). The interrupted iteration's work is badput; the usual
// reconfiguration cost is charged before execution continues.
func (e *Engine) shrinkThroughFailure(jr *jobRun, id platform.NodeID) {
	now := e.Now()
	oldSize := len(jr.nodes)
	if jr.state == stateRunning {
		if lost := (now - jr.iterStart) * float64(oldSize); lost > 0 {
			e.rec.JobLostWork(jr.rec, lost)
		}
	}
	e.cancelTask(jr)
	for i, n := range jr.nodes {
		if n == id {
			jr.nodes = append(jr.nodes[:i], jr.nodes[i+1:]...)
			break
		}
	}
	jr.view.Nodes = len(jr.nodes)
	if err := e.alloc.Release(jr.owner, []platform.NodeID{id}); err != nil {
		panic(fmt.Sprintf("core: releasing failed node %d of %s: %v", int(id), jr.label(), err))
	}
	e.telNodesReleased(jr, []platform.NodeID{id})
	e.rec.AddGantt(jr.view.Job.ID, jr.label(), oldSize, jr.segStart, now)
	jr.segStart = now
	e.rec.JobReconfigured(jr.rec, now, len(jr.nodes))
	if e.tracing() {
		e.traceEvent(EvFailShrink, jr.view.Job.ID, fmt.Sprintf("%d->%d node=%d", oldSize, len(jr.nodes), int(id)))
	}
	if jr.state == stateAtSchedPoint {
		// The pending resume event charges the reconfiguration cost; no
		// iteration was in flight, so nothing is redone.
		if jr.pendingResize == 0 {
			jr.pendingResize = int32(oldSize)
		}
		return
	}
	jr.taskIdx = 0
	jr.setState(stateRunning)
	e.chargeReconfiguration(jr, oldSize)
}

// killByNodeFailure tears a job off its nodes. Work since the last
// checkpoint is badput. When requeue is allowed and the per-job bound not
// yet exhausted, the job re-enters the pending queue and will restart from
// its checkpointed position; otherwise it terminates as failed-node.
func (e *Engine) killByNodeFailure(jr *jobRun, requeue bool) {
	now := e.Now()
	lost := (now - jr.lastCkpt) * float64(len(jr.nodes))
	if lost < 0 {
		lost = 0
	}
	e.cancelWork(jr)
	e.rec.AddGantt(jr.view.Job.ID, jr.label(), len(jr.nodes), jr.segStart, now)
	if n := e.alloc.Owned(jr.owner); n != len(jr.nodes) {
		panic(fmt.Sprintf("core: job %s released %d nodes, held %d", jr.label(), n, len(jr.nodes)))
	}
	if err := e.alloc.Release(jr.owner, jr.nodes); err != nil {
		panic(fmt.Sprintf("core: releasing %s: %v", jr.label(), err))
	}
	e.telNodesReleased(jr, jr.nodes)
	jr.nodes = nil
	e.running.remove(jr)
	e.rec.JobFailed(jr.rec, now, lost)
	if requeue && int(jr.requeues) < e.injector.Spec().EffectiveMaxRequeues() {
		jr.requeues++
		jr.setState(statePending) // also clears the outstanding evolving request
		jr.grantedTarget, jr.pendingResize = 0, 0
		e.rec.JobRequeued(jr.rec)
		if e.tracing() {
			e.traceEvent(EvRequeued, jr.view.Job.ID, fmt.Sprintf("requeue=%d ckpt=%d/%d", jr.requeues, jr.ckptPhase, jr.ckptIter))
		}
		e.queue.add(jr)
		return
	}
	jr.setState(stateDone)
	e.rec.JobFinished(jr.rec, now, metrics.StatusFailedNode)
	e.traceEvent(EvFinish, jr.view.Job.ID, "status=failed-node")
	e.outstanding--
	e.markFinished(jr.view.Job.ID)
}

// maybeCheckpoint takes a program-counter checkpoint at an iteration
// boundary when the job's checkpoint_interval model says one is due. The
// position checkpointed is the one about to execute: a later restart
// resumes there. Without a failure model checkpoints are pure overhead, so
// none are taken (pay-for-what-you-use).
func (e *Engine) maybeCheckpoint(jr *jobRun) {
	if e.injector == nil || jr.view.Job.CheckpointInterval == nil {
		return
	}
	now := e.Now()
	interval, err := jr.view.Job.CheckpointInterval.Eval(e.env(jr), len(jr.nodes))
	if err != nil {
		e.warnf("job %s: checkpoint interval error: %v", jr.label(), err)
		return
	}
	if interval > 0 && now-jr.lastCkpt < interval {
		return
	}
	jr.ckptPhase, jr.ckptIter = jr.phaseIdx, jr.iter
	jr.lastCkpt = now
	if e.tracing() {
		e.traceEvent(EvCheckpoint, jr.view.Job.ID, fmt.Sprintf("phase=%d iter=%d", jr.phaseIdx, jr.iter))
	}
}
