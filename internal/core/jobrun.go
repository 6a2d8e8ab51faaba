package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/des"
	"repro/internal/expr"
	"repro/internal/fluid"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sched"
)

// jobState is the engine-internal lifecycle state of a job.
type jobState uint8

const (
	stateHeld    jobState = iota // submitted, waiting on dependencies
	statePending                 // schedulable
	stateRunning
	stateAtSchedPoint  // paused at a scheduling point, waiting for resume
	stateReconfiguring // paying the reconfiguration cost
	stateDone
)

func (s jobState) String() string {
	switch s {
	case stateHeld:
		return "held"
	case statePending:
		return "pending"
	case stateRunning:
		return "running"
	case stateAtSchedPoint:
		return "at-scheduling-point"
	case stateReconfiguring:
		return "reconfiguring"
	case stateDone:
		return "done"
	default:
		return fmt.Sprintf("jobState(%d)", int(s))
	}
}

// jobRun is the mutable execution state of one job. A simulation keeps
// one per live job (see runTable), so the small counters are int32s and
// the small flags share the last word.
type jobRun struct {
	rec *metrics.JobRecord // the Recorder's handle for this job

	// view is what scheduling algorithms see of the job, kept current at
	// every change it reflects: setState derives State and
	// AtSchedulingPoint, start sets StartTime and ExpectedEnd, Nodes
	// follows nodes, and EvolvingRequest is the outstanding evolving
	// request (0 = none) — its only home. view.Job is the job itself.
	view sched.JobView

	// owner is the job's allocator key, formatted once at submission —
	// allocator calls on hot paths must not re-render it.
	owner string

	nodes []platform.NodeID

	// Program counter over the application model.
	phaseIdx int32
	iter     int32
	taskIdx  int32

	// In-flight work: exactly one of activity/timer is set while running.
	activity *fluid.Activity
	timer    *des.Event
	// onTaskDone is the task-completion callback, built once per slot —
	// it captures only the engine and the slot, so every job that occupies
	// the slot shares it — and dispatching a task allocates nothing.
	onTaskDone func()

	// Walltime enforcement.
	killEvent *des.Event

	// Evolving support: granted-but-unapplied target (applied at the next
	// scheduling point); the outstanding request is view.EvolvingRequest.
	grantedTarget int32

	// pendingResize holds the PREVIOUS allocation size after a scheduler
	// resize was applied at the current scheduling point (0 = none); the
	// reconfiguration cost is charged when the job resumes.
	pendingResize int32

	// Gantt bookkeeping.
	segStart float64

	// depsLeft counts unfinished dependencies; the job is held until it
	// reaches zero.
	depsLeft int32

	// listPos is the job's index in the engine's pending queue or running
	// list (it is in at most one at a time), -1 when in neither. Owned by
	// runList; enables O(1) tombstoned removal.
	listPos int32

	// Resilience bookkeeping: the checkpointed program-counter position a
	// restart resumes from, when it was taken, when the current iteration
	// began, and how often the job was requeued after node failures.
	ckptPhase int32
	ckptIter  int32
	lastCkpt  float64
	iterStart float64
	requeues  int32

	state jobState // written only by setState

	// Telemetry span bookkeeping: whether a task/reconfigure span is open
	// on the job's track (so kills and failures can close them cleanly).
	telTaskOpen   bool
	telReconfOpen bool
}

func (jr *jobRun) phase() *job.Phase { return &jr.view.Job.App.Phases[jr.phaseIdx] }
func (jr *jobRun) task() *job.Task   { return &jr.phase().Tasks[jr.taskIdx] }

// setState moves the job to s and keeps its view in step: State and
// AtSchedulingPoint follow s, and a (re)entry into the pending queue clears
// the fields only a started job has.
func (jr *jobRun) setState(s jobState) {
	jr.state = s
	v := &jr.view
	v.AtSchedulingPoint = s == stateAtSchedPoint
	if s == statePending {
		v.State = sched.StatePending
		v.Nodes, v.StartTime, v.EvolvingRequest, v.ExpectedEnd = 0, 0, 0, 0
		return
	}
	v.State = sched.StateRunning
}

// taskEnv is the expression environment of a job's current position: the
// job's arguments, then the engine-provided names. The engine owns one and
// points it at the job being evaluated, so evaluating a model allocates
// nothing.
type taskEnv struct {
	jr    *jobRun
	total float64 // machine size
}

// Lookup implements expr.Env.
func (t *taskEnv) Lookup(name string) (float64, bool) {
	jr := t.jr
	if v, ok := jr.view.Job.Args[name]; ok {
		return v, true
	}
	switch name {
	case "num_nodes":
		return float64(len(jr.nodes)), true
	case "total_nodes":
		return t.total, true
	case "iteration":
		return float64(jr.iter), true
	case "iterations":
		return float64(jr.phase().EffectiveIterations()), true
	case "phase":
		return float64(jr.phaseIdx), true
	case "walltime":
		return jr.view.Job.WallTimeLimit, true
	}
	return 0, false
}

// env returns the expression environment for the job's current position,
// valid until the next call.
func (e *Engine) env(jr *jobRun) expr.Env {
	e.tenv.jr = jr
	return &e.tenv
}

// reconfigEnv is the expression environment of a reconfiguration cost: the
// allocation sizes before and after, then the task environment (so the
// sizes shadow a job argument of the same name). The engine owns one, so
// pricing a reconfiguration allocates nothing.
type reconfigEnv struct {
	oldSize, newSize float64
	task             *taskEnv
}

// Lookup implements expr.Env.
func (r *reconfigEnv) Lookup(name string) (float64, bool) {
	switch name {
	case "num_nodes_old":
		return r.oldSize, true
	case "num_nodes_new":
		return r.newSize, true
	}
	return r.task.Lookup(name)
}

// start launches a pending job on the given allocation. A restart after a
// node-failure requeue resumes at the checkpointed position with a fresh
// walltime budget for the remaining work.
func (e *Engine) start(jr *jobRun, nodes []platform.NodeID) {
	now := e.Now()
	jr.nodes = nodes
	jr.setState(stateRunning)
	jr.view.Nodes = len(nodes)
	jr.view.StartTime = now
	jr.view.ExpectedEnd = math.Inf(1)
	if jr.view.Job.WallTimeLimit > 0 {
		jr.view.ExpectedEnd = now + jr.view.Job.WallTimeLimit
	}
	jr.segStart = now
	jr.phaseIdx, jr.iter, jr.taskIdx = jr.ckptPhase, jr.ckptIter, 0
	jr.lastCkpt = now
	e.running.add(jr)
	e.rec.JobStarted(jr.rec, now, len(nodes))
	if e.tracing() {
		detail := fmt.Sprintf("nodes=%d", len(nodes))
		if jr.requeues > 0 {
			detail += fmt.Sprintf(" restart=%d ckpt=%d/%d", jr.requeues, jr.ckptPhase, jr.ckptIter)
		}
		e.traceEvent(EvStart, jr.view.Job.ID, detail)
	}
	e.telNodesAllocated(jr, jr.nodes)
	if jr.view.Job.WallTimeLimit > 0 {
		jr.killEvent = e.kernel.Schedule(des.Time(now+jr.view.Job.WallTimeLimit), des.PriorityEngine, func() {
			e.kill(jr, metrics.StatusKilledWalltime)
		})
	}
	e.startTask(jr)
}

// startTask dispatches the current task. Precondition: jr.state == running.
func (e *Engine) startTask(jr *jobRun) {
	if jr.taskIdx == 0 {
		jr.iterStart = e.Now()
	}
	t := jr.task()
	n := len(jr.nodes)
	magnitude, err := t.Model.Eval(e.env(jr), n)
	if err != nil {
		// Validation makes this unreachable; degrade to zero work.
		e.warnf("job %s task %s model error: %v", jr.label(), t.Kind, err)
		magnitude = 0
	}
	if magnitude < 0 {
		magnitude = 0
	}
	done := jr.onTaskDone
	if e.opts.TraceTasks && e.tracing() {
		began := e.Now()
		detail := fmt.Sprintf("phase=%d iter=%d task=%d kind=%s", jr.phaseIdx, jr.iter, jr.taskIdx, t.Kind)
		e.traceEvent(EvTaskStart, jr.view.Job.ID, detail)
		inner := done
		done = func() {
			e.traceEvent(EvTaskEnd, jr.view.Job.ID, fmt.Sprintf("%s dur=%.6f", detail, e.Now()-began))
			inner()
		}
	}
	switch t.Kind {
	case job.TaskCompute:
		// Nodes are exclusively allocated, so compute never contends: the
		// duration is magnitude over the slowest node's speed. The fluid
		// path below realizes exactly the same value.
		if !e.opts.DisableFastPath {
			e.completeAfter(jr, magnitude/e.minSpeed(jr), done)
			return
		}
		a := jr.newActivity("compute", magnitude, done)
		for _, id := range jr.nodes {
			a.AddUsage(e.plat.Compute(id), 1)
		}
		jr.activity = a
		e.pool.Start(a)
	case job.TaskDelay:
		jr.timer = e.kernel.ScheduleAfter(des.Time(magnitude), des.PriorityEngine, done)
	case job.TaskComm:
		e.startComm(jr, t, magnitude, done)
	case job.TaskRead, job.TaskWrite:
		e.startIO(jr, t, magnitude, done)
	case job.TaskEvolvingRequest:
		e.registerEvolvingRequest(jr, magnitude)
		// Asynchronous: the task completes immediately.
		jr.timer = e.kernel.ScheduleAfter(0, des.PriorityEngine, done)
	default:
		e.warnf("job %s: unknown task kind %q", jr.label(), t.Kind)
		jr.timer = e.kernel.ScheduleAfter(0, des.PriorityEngine, done)
	}
}

// startComm models a collective operation. The payload is scaled onto each
// participant's injection link (and the backbone, if present) with
// pattern-specific weights; the activity completes when the slowest
// participant is done.
func (e *Engine) startComm(jr *jobRun, t *job.Task, payload float64, done func()) {
	n := len(jr.nodes)
	if n <= 1 || payload <= 0 {
		jr.timer = e.kernel.ScheduleAfter(0, des.PriorityEngine, done)
		return
	}
	linkW, rootW, backboneW := job.CommWeights(t.Pattern, n)
	// The slowest participant's link bounds the operation: the maximum of
	// weight/capacity over participants is the per-payload-byte time.
	linkBound := 0.0 // seconds per payload byte
	for i, id := range jr.nodes {
		w := linkW
		if i == 0 {
			w = rootW
		}
		if b := w / e.plat.Link(id).Capacity(); b > linkBound {
			linkBound = b
		}
	}
	// Collect the SHARED resources this collective crosses: per-group
	// uplinks and the core (tree), or the backbone. The job's private
	// links are handled either as explicit usages (full-fluid mode) or as
	// a rate cap (fast path).
	type sharedUsage struct {
		res    *fluid.Resource
		weight float64
	}
	var shared []sharedUsage
	backbone := e.plat.Backbone()
	if e.plat.IsTree() {
		uplinkW, coreW := job.UplinkWeights(t.Pattern, n, e.plat.GroupCounts(jr.nodes))
		groups := make([]int, 0, len(uplinkW))
		for g := range uplinkW {
			groups = append(groups, g)
		}
		sort.Ints(groups) // deterministic usage order
		for _, g := range groups {
			shared = append(shared, sharedUsage{e.plat.Uplink(g), uplinkW[g]})
		}
		if backbone != nil && coreW > 0 {
			shared = append(shared, sharedUsage{backbone, coreW})
		}
	} else if backbone != nil && backboneW > 0 {
		shared = append(shared, sharedUsage{backbone, backboneW})
	}
	if !e.opts.DisableFastPath && len(shared) == 0 {
		// Only the job's own links are involved — no cross-job
		// contention, closed-form duration.
		e.completeAfter(jr, e.plat.Latency()+payload*linkBound, done)
		return
	}
	begin := func() {
		a := jr.newActivity(string(t.Pattern), payload, done)
		for _, u := range shared {
			a.AddUsage(u.res, u.weight)
		}
		if !e.opts.DisableFastPath {
			// The private links become a rate cap.
			a.SetMaxRate(1 / linkBound)
		} else {
			for i, id := range jr.nodes {
				w := linkW
				if i == 0 {
					w = rootW
				}
				a.AddUsage(e.plat.Link(id), w)
			}
		}
		jr.activity = a
		e.pool.Start(a)
	}
	if lat := e.plat.Latency(); lat > 0 {
		jr.timer = e.kernel.ScheduleAfter(des.Time(lat), des.PriorityEngine, func() {
			e.kernel.Release(jr.timer)
			jr.timer = nil
			begin()
		})
		return
	}
	begin()
}

// completeAfter finishes the current task after a closed-form duration.
// The timer runs at activity priority so intra-timestamp ordering matches
// the fluid path.
func (e *Engine) completeAfter(jr *jobRun, seconds float64, done func()) {
	if seconds < 0 {
		seconds = 0
	}
	jr.timer = e.kernel.ScheduleAfter(des.Time(seconds), des.PriorityActivity, done)
}

// minSpeed returns the slowest allocated node's compute speed.
func (e *Engine) minSpeed(jr *jobRun) float64 {
	speed := e.plat.Node(jr.nodes[0]).Speed
	for _, id := range jr.nodes[1:] {
		if s := e.plat.Node(id).Speed; s < speed {
			speed = s
		}
	}
	return speed
}

// minLinkCap returns the slowest allocated node's link bandwidth.
func (e *Engine) minLinkCap(jr *jobRun) float64 {
	cap0 := e.plat.Link(jr.nodes[0]).Capacity()
	for _, id := range jr.nodes[1:] {
		if c := e.plat.Link(id).Capacity(); c < cap0 {
			cap0 = c
		}
	}
	return cap0
}

// startIO models a parallel read/write of `total` bytes striped over the
// allocation. PFS and shared burst buffers are single contended resources;
// node-local burst buffers drain independently per node. PFS traffic also
// loads each node's injection link with its 1/n share.
func (e *Engine) startIO(jr *jobRun, t *job.Task, total float64, done func()) {
	n := len(jr.nodes)
	if total <= 0 {
		jr.timer = e.kernel.ScheduleAfter(0, des.PriorityEngine, done)
		return
	}
	fast := !e.opts.DisableFastPath
	share := 1 / float64(n)
	a := jr.newActivity(string(t.Kind), total, done)
	switch t.Target {
	case job.TargetPFS:
		var res *fluid.Resource
		if t.Kind == job.TaskRead {
			res = e.plat.PFSRead()
		} else {
			res = e.plat.PFSWrite()
		}
		a.AddUsage(res, 1)
		e.addTreeIOUsages(a, jr)
		if fast {
			// Each node moves a 1/n share through its private link:
			// aggregate cap n * slowest link.
			a.SetMaxRate(float64(n) * e.minLinkCap(jr))
		} else {
			for _, id := range jr.nodes {
				a.AddUsage(e.plat.Link(id), share)
			}
		}
	case job.TargetBB:
		if e.plat.BurstBufferKind() == platform.BBNodeLocal {
			// Node-local buffers are private to the allocation: every node
			// drains its 1/n share independently; the slowest bounds the
			// task. No cross-job contention is possible, so the fluid
			// solver is only needed when the fast path is disabled.
			if fast {
				minBB := e.minBBCap(jr, t.Kind == job.TaskRead)
				e.completeAfter(jr, total/(float64(n)*minBB), done)
				return
			}
			for _, id := range jr.nodes {
				a.AddUsage(e.bbResource(id, t.Kind == job.TaskRead), share)
			}
		} else {
			// Shared (network-attached) burst buffer: contended across
			// jobs; traffic also crosses the private links.
			a.AddUsage(e.bbResource(jr.nodes[0], t.Kind == job.TaskRead), 1)
			e.addTreeIOUsages(a, jr)
			if fast {
				a.SetMaxRate(float64(n) * e.minLinkCap(jr))
			} else {
				for _, id := range jr.nodes {
					a.AddUsage(e.plat.Link(id), share)
				}
			}
		}
	}
	jr.activity = a
	e.pool.Start(a)
}

// addTreeIOUsages routes PFS / shared-burst-buffer traffic over the tree
// topology: each group's uplink carries its members' share of the bytes,
// and everything crosses the core (the storage attaches there).
func (e *Engine) addTreeIOUsages(a *fluid.Activity, jr *jobRun) {
	if !e.plat.IsTree() {
		return
	}
	n := float64(len(jr.nodes))
	counts := e.plat.GroupCounts(jr.nodes)
	groups := make([]int, 0, len(counts))
	for g := range counts {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		a.AddUsage(e.plat.Uplink(g), float64(counts[g])/n)
	}
	if core := e.plat.Backbone(); core != nil {
		a.AddUsage(core, 1)
	}
}

func (e *Engine) bbResource(id platform.NodeID, read bool) *fluid.Resource {
	if read {
		return e.plat.BBRead(id)
	}
	return e.plat.BBWrite(id)
}

// minBBCap returns the slowest allocated node's burst-buffer bandwidth.
func (e *Engine) minBBCap(jr *jobRun, read bool) float64 {
	cap0 := e.bbResource(jr.nodes[0], read).Capacity()
	for _, id := range jr.nodes[1:] {
		if c := e.bbResource(id, read).Capacity(); c < cap0 {
			cap0 = c
		}
	}
	return cap0
}

// registerEvolvingRequest records the application's desired size and pokes
// the scheduler.
func (e *Engine) registerEvolvingRequest(jr *jobRun, desired float64) {
	want := int(desired + 0.5)
	minN, maxN := jr.view.Job.MinNodes(), jr.view.Job.MaxNodes()
	if want < minN {
		want = minN
	}
	if want > maxN {
		want = maxN
	}
	if want == len(jr.nodes) && jr.grantedTarget == 0 {
		return // nothing to ask for
	}
	if want == jr.view.EvolvingRequest || int32(want) == jr.grantedTarget {
		return // already outstanding or already granted
	}
	jr.view.EvolvingRequest = want
	if e.tracing() {
		e.traceEvent(EvEvolvingRequest, jr.view.Job.ID, fmt.Sprintf("want=%d have=%d", want, len(jr.nodes)))
	}
	e.requestInvocation(sched.ReasonEvolvingRequest)
}

// taskDone advances the job's program counter.
func (e *Engine) taskDone(jr *jobRun) {
	jr.activity = nil
	if jr.timer != nil {
		// The timer that just fired is ours alone; hand its allocation back
		// to the kernel. (When taskDone is reached via the fluid solver the
		// timer is already nil.)
		e.kernel.Release(jr.timer)
		jr.timer = nil
	}
	if jr.state == stateDone {
		return
	}
	jr.taskIdx++
	if int(jr.taskIdx) < len(jr.phase().Tasks) {
		e.startTask(jr)
		return
	}
	// Iteration finished.
	jr.taskIdx = 0
	jr.iter++
	p := jr.phase()
	if int(jr.iter) < p.EffectiveIterations() {
		e.maybeCheckpoint(jr)
		if p.SchedulingPoint {
			e.enterSchedulingPoint(jr)
			return
		}
		e.startTask(jr)
		return
	}
	// Phase finished. A scheduling point after the last iteration also
	// fires, giving the scheduler one more reconfiguration opportunity
	// before the next phase (matching the "between iterations" contract
	// only within a phase would starve single-iteration phases).
	jr.iter = 0
	jr.phaseIdx++
	if int(jr.phaseIdx) < len(jr.view.Job.App.Phases) {
		e.maybeCheckpoint(jr)
		if p.SchedulingPoint {
			e.enterSchedulingPoint(jr)
			return
		}
		e.startTask(jr)
		return
	}
	e.finish(jr, metrics.StatusCompleted)
}

// enterSchedulingPoint pauses the job, pokes the scheduler, and arranges
// resumption after the scheduler had its chance at this timestamp. A kill
// in that invocation finishes the job and frees its slot before the resume
// fires, so the resume checks that the slot still holds the job that
// paused, not only that its occupant is paused.
func (e *Engine) enterSchedulingPoint(jr *jobRun) {
	jr.setState(stateAtSchedPoint)
	jr.pendingResize = 0
	if e.tracing() {
		e.traceEvent(EvSchedulingPoint, jr.view.Job.ID, fmt.Sprintf("phase=%d iter=%d", jr.phaseIdx, jr.iter))
	}
	e.requestInvocation(sched.ReasonSchedulingPoint)
	id := jr.view.Job.ID
	e.kernel.ScheduleTransientAfter(0, PriorityResume, func() {
		if jr.view.Job.ID == id {
			e.resumeFromSchedulingPoint(jr)
		}
	})
}

// resumeFromSchedulingPoint charges any pending reconfiguration (scheduler
// resize applied at decision time, or an evolving grant applied now) and
// continues execution.
func (e *Engine) resumeFromSchedulingPoint(jr *jobRun) {
	if jr.state != stateAtSchedPoint {
		return // killed meanwhile
	}
	oldSize := int(jr.pendingResize)
	jr.pendingResize = 0
	if oldSize == 0 && jr.grantedTarget != 0 {
		// Apply an evolving grant, bounded by what is free right now.
		target := int(jr.grantedTarget)
		cur := len(jr.nodes)
		if target > cur {
			if maxGrow := cur + e.alloc.Free(); target > maxGrow {
				target = maxGrow
			}
		}
		jr.grantedTarget = 0
		jr.view.EvolvingRequest = 0
		if target != 0 && target != cur {
			if e.tracing() {
				e.traceEvent(EvGrantApplied, jr.view.Job.ID, fmt.Sprintf("target=%d", target))
			}
			e.adjustAllocation(jr, target)
			oldSize = cur
		}
	}
	if oldSize != 0 && oldSize != len(jr.nodes) {
		e.chargeReconfiguration(jr, oldSize)
		return
	}
	jr.setState(stateRunning)
	e.startTask(jr)
}

// adjustAllocation grows or shrinks a paused job's node set immediately.
// Precondition: target is feasible (enough free nodes for growth).
func (e *Engine) adjustAllocation(jr *jobRun, target int) {
	now := e.Now()
	cur := len(jr.nodes)
	owner := jr.owner
	if target > cur {
		added, err := e.alloc.Allocate(owner, target-cur)
		if err != nil {
			panic(fmt.Sprintf("core: validated expand of %s failed: %v", jr.label(), err))
		}
		jr.nodes = append(jr.nodes, added...)
		e.telNodesAllocated(jr, added)
	} else {
		// Release the highest-numbered nodes.
		platform.SortNodeIDs(jr.nodes)
		released := jr.nodes[target:]
		jr.nodes = jr.nodes[:target]
		if err := e.alloc.Release(owner, released); err != nil {
			panic(fmt.Sprintf("core: inconsistent allocation for %s: %v", jr.label(), err))
		}
		e.telNodesReleased(jr, released)
	}
	jr.view.Nodes = len(jr.nodes)
	e.rec.AddGantt(jr.view.Job.ID, jr.label(), cur, jr.segStart, now)
	jr.segStart = now
	e.rec.JobReconfigured(jr.rec, now, len(jr.nodes))
	if e.tracing() {
		e.traceEvent(EvReconfigured, jr.view.Job.ID, fmt.Sprintf("%d->%d", cur, target))
	}
}

// chargeReconfiguration pays the job's reconfiguration cost (if any) and
// resumes execution afterwards.
func (e *Engine) chargeReconfiguration(jr *jobRun, oldSize int) {
	cost := 0.0
	if jr.view.Job.ReconfigCost != nil {
		e.tenv.jr = jr
		e.renv.oldSize, e.renv.newSize = float64(oldSize), float64(len(jr.nodes))
		v, err := jr.view.Job.ReconfigCost.Eval(&e.renv, len(jr.nodes))
		if err != nil {
			e.warnf("job %s: reconfig cost error: %v", jr.label(), err)
		} else if v > 0 {
			cost = v
		}
	}
	if cost > 0 {
		jr.setState(stateReconfiguring)
		e.telBeginReconfig(jr, oldSize)
		jr.timer = e.kernel.ScheduleAfter(des.Time(cost), des.PriorityEngine, func() {
			e.kernel.Release(jr.timer)
			jr.timer = nil
			if jr.state != stateReconfiguring {
				return
			}
			e.telEndReconfig(jr)
			jr.setState(stateRunning)
			e.startTask(jr)
		})
		return
	}
	jr.setState(stateRunning)
	e.startTask(jr)
}

// finish completes a running job with the given terminal status and
// releases its run: a job that ran was never held, so no dependents list
// names it, and cancelWork took every event and activity that did.
func (e *Engine) finish(jr *jobRun, status metrics.JobStatus) {
	now := e.Now()
	jr.setState(stateDone)
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
	e.rec.JobFinished(jr.rec, now, status)
	if e.tracing() {
		e.traceEvent(EvFinish, jr.view.Job.ID, fmt.Sprintf("status=%s", status))
	}
	e.outstanding--
	e.markFinished(jr.view.Job.ID)
	e.requestInvocation(sched.ReasonCompletion)
	e.runs.release(jr)
}

// kill terminates a running job (walltime limit or scheduler decision).
func (e *Engine) kill(jr *jobRun, status metrics.JobStatus) {
	if jr.state == stateDone || jr.state == statePending {
		return
	}
	e.finish(jr, status)
}

// cancelTask tears down the in-flight activity or timer, leaving the
// walltime kill event armed. An open telemetry task span ends here: the
// task stops at this instant. Cancelled timers are released back to the
// kernel — jr.timer was the only reference.
func (e *Engine) cancelTask(jr *jobRun) {
	e.telCloseTask(jr)
	if jr.activity != nil {
		e.pool.Cancel(jr.activity)
		jr.activity = nil
	}
	if jr.timer != nil {
		e.kernel.Cancel(jr.timer)
		e.kernel.Release(jr.timer)
		jr.timer = nil
	}
}

// cancelWork tears down in-flight activity, timers, and the kill event.
// The kill event may be the one currently firing (a walltime kill reaches
// here through finish): Cancel is then a no-op and Release recycles the
// just-fired allocation.
func (e *Engine) cancelWork(jr *jobRun) {
	e.cancelTask(jr)
	if jr.killEvent != nil {
		e.kernel.Cancel(jr.killEvent)
		e.kernel.Release(jr.killEvent)
		jr.killEvent = nil
	}
}

// ownerKey is a run's allocator key, "job<ID>": the label Job.Label gives
// an unnamed job, so label can hand it out instead of formatting it again.
func ownerKey(id job.ID) string { return "job" + strconv.Itoa(int(id)) }

// label is the job's display name in records, Gantt segments, activities,
// telemetry and messages: its Name if set, otherwise the owner key.
func (jr *jobRun) label() string {
	if name := jr.view.Job.Name; name != "" {
		return name
	}
	return jr.owner
}

// newActivity builds the fluid activity of jr's current task, named by the
// job's label. The task detail (compute, a comm pattern, read or write) is
// formatted only into the panic that invalid work raises.
func (jr *jobRun) newActivity(detail string, work float64, done func()) *fluid.Activity {
	if work < 0 || math.IsNaN(work) {
		panic(fmt.Sprintf("core: invalid work %v for activity %s.%s", work, jr.label(), detail))
	}
	return fluid.NewActivity(jr.label(), work, done)
}
