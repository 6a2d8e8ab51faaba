package core

import (
	"runtime"
	"strings"

	"repro/internal/job"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// This file adapts engine lifecycle events onto telemetry spans. Each job
// gets a track carrying a "wait" span (submit → start, reopened on
// requeue), a "run" span (start → finish), nested "reconfigure" and "task"
// spans, and instants for scheduling points, grants, and checkpoints. Each
// node gets a track whose spans are the jobs allocated to it and its
// outages. Execution order guarantees well-nested spans: a job always
// releases a node (span end) before the node's outage span begins, and a
// finishing job closes its open task/reconfigure spans first.

// telJobEvent maps one job-level trace event onto the job's span track.
// Only called with telemetry enabled.
func (e *Engine) telJobEvent(kind TraceEventKind, id job.ID, detail string) {
	tel := e.opts.Telemetry
	tr := telemetry.JobTrack(int(id))
	now := e.Now()
	switch kind {
	case EvSubmit:
		tel.Begin(tr, "wait", now, telemetry.Arg{Key: "type", Value: strings.TrimPrefix(detail, "type=")})
	case EvStart:
		tel.End(tr, "wait", now)
		nodes := 0
		if jr := e.runs.get(id); jr != nil {
			nodes = len(jr.nodes)
		}
		tel.Begin(tr, "run", now, telemetry.Arg{Key: "nodes", Value: nodes})
	case EvFinish:
		if detail == "killed-pending" {
			tel.End(tr, "wait", now)
			return
		}
		e.telCloseNested(id)
		tel.End(tr, "run", now, telemetry.Arg{Key: "status", Value: strings.TrimPrefix(detail, "status=")})
	case EvRequeued:
		e.telCloseNested(id)
		tel.End(tr, "run", now)
		tel.Begin(tr, "wait", now, telemetry.Arg{Key: "detail", Value: detail})
	case EvTaskStart:
		tel.Begin(tr, "task", now, telemetry.Arg{Key: "detail", Value: detail})
		if jr := e.runs.get(id); jr != nil {
			jr.telTaskOpen = true
		}
	case EvTaskEnd:
		tel.End(tr, "task", now)
		if jr := e.runs.get(id); jr != nil {
			jr.telTaskOpen = false
		}
	default:
		// Everything else is a point event on the job's track.
		if detail == "" {
			tel.Instant(tr, string(kind), now)
			return
		}
		tel.Instant(tr, string(kind), now, telemetry.Arg{Key: "detail", Value: detail})
	}
}

// telCloseNested ends any task/reconfigure span still open when a job's
// run span closes (kill, walltime, node failure), keeping spans nested.
func (e *Engine) telCloseNested(id job.ID) {
	jr := e.runs.get(id)
	if jr == nil {
		return
	}
	e.telCloseTask(jr)
	e.telEndReconfig(jr)
}

// telCloseTask ends the job's open task span, if any (tasks cancelled by
// kills and failures stop at the cancellation instant).
func (e *Engine) telCloseTask(jr *jobRun) {
	tel := e.opts.Telemetry
	if !tel.Enabled() || !jr.telTaskOpen {
		return
	}
	tel.End(telemetry.JobTrack(int(jr.view.Job.ID)), "task", e.Now())
	jr.telTaskOpen = false
}

// telNodeEvent maps node failures and repairs onto outage spans on the
// node's track. Only called with telemetry enabled.
func (e *Engine) telNodeEvent(kind TraceEventKind, node int) {
	tel := e.opts.Telemetry
	tr := telemetry.NodeTrack(node)
	switch kind {
	case EvNodeDown:
		tel.Begin(tr, "outage", e.Now())
	case EvNodeUp:
		tel.End(tr, "outage", e.Now())
	}
}

// telNodesAllocated opens a job span on each newly allocated node's track.
func (e *Engine) telNodesAllocated(jr *jobRun, nodes []platform.NodeID) {
	tel := e.opts.Telemetry
	if !tel.Enabled() {
		return
	}
	now := e.Now()
	label := jr.label()
	for _, n := range nodes {
		tel.Begin(telemetry.NodeTrack(int(n)), label, now)
	}
}

// telNodesReleased closes the job span on each released node's track.
func (e *Engine) telNodesReleased(jr *jobRun, nodes []platform.NodeID) {
	tel := e.opts.Telemetry
	if !tel.Enabled() {
		return
	}
	now := e.Now()
	label := jr.label()
	for _, n := range nodes {
		tel.End(telemetry.NodeTrack(int(n)), label, now)
	}
}

// telBeginReconfig opens the job's reconfigure span (cost charging).
func (e *Engine) telBeginReconfig(jr *jobRun, oldSize int) {
	tel := e.opts.Telemetry
	if !tel.Enabled() {
		return
	}
	tel.Begin(telemetry.JobTrack(int(jr.view.Job.ID)), "reconfigure", e.Now(),
		telemetry.Arg{Key: "from", Value: oldSize},
		telemetry.Arg{Key: "to", Value: len(jr.nodes)})
	jr.telReconfOpen = true
}

// telEndReconfig closes the job's reconfigure span.
func (e *Engine) telEndReconfig(jr *jobRun) {
	tel := e.opts.Telemetry
	if !tel.Enabled() || !jr.telReconfOpen {
		return
	}
	tel.End(telemetry.JobTrack(int(jr.view.Job.ID)), "reconfigure", e.Now())
	jr.telReconfOpen = false
}

// FinalizeTelemetry force-closes every telemetry span still open — waiting
// and running jobs, in-flight tasks and reconfigurations, per-node job and
// outage spans — at the current simulation time. A completed run has no
// open spans, so this is only meaningful (and only called) after an abort:
// it keeps Chrome/JSONL sinks well-nested and machine-validatable even
// when the simulation was cut short. Idempotent; the span ends carry an
// "aborted" argument so post-processors can tell them from real
// completions.
func (e *Engine) FinalizeTelemetry() {
	tel := e.opts.Telemetry
	if !tel.Enabled() || e.telFinalized {
		return
	}
	e.telFinalized = true
	now := e.Now()
	aborted := telemetry.Arg{Key: "aborted", Value: true}
	e.runs.forEachByID(func(jr *jobRun) {
		tr := telemetry.JobTrack(int(jr.view.Job.ID))
		switch jr.state {
		case stateHeld, statePending:
			tel.End(tr, "wait", now, aborted)
		case stateRunning, stateAtSchedPoint, stateReconfiguring:
			e.telCloseTask(jr)
			e.telEndReconfig(jr)
			tel.End(tr, "run", now, aborted)
			label := jr.label()
			for _, n := range jr.nodes {
				tel.End(telemetry.NodeTrack(int(n)), label, now, aborted)
			}
		}
	})
	for _, n := range e.down {
		tel.End(telemetry.NodeTrack(n), "outage", now, aborted)
	}
}

// TelemetrySnapshot samples every internal counter into the self-profiling
// artifact. Valid after Run; wall-clock and heap fields are the only
// non-deterministic data and never feed back into simulation outputs.
func (e *Engine) TelemetrySnapshot() telemetry.Snapshot {
	ks := e.kernel.Stats()
	snap := telemetry.Snapshot{
		Runs: 1,
		Jobs: len(e.workload.Jobs),
		Kernel: telemetry.KernelStats{
			Scheduled: ks.Scheduled,
			Fired:     ks.Fired,
			Cancelled: ks.Cancelled,
			Recycled:  ks.Recycled,
			PeakQueue: ks.PeakQueue,
		},
		Solver: telemetry.SolverStats{
			Solves:           e.pool.Solves(),
			SolvedActivities: e.pool.SolvedActivities(),
		},
		Scheduler: telemetry.SchedulerStats{
			Invocations: e.invocations,
			Elided:      e.invocationsElided,
			Applied:     e.decisionsApplied,
			Rejected:    e.decisionsRejected,
		},
		Wall: telemetry.WallStats{
			RunNS:       e.wallRun.Nanoseconds(),
			SchedulerNS: e.wallSched.Nanoseconds(),
		},
	}
	for kind, n := range e.decisionsByKind {
		if n == 0 {
			continue
		}
		if snap.Scheduler.ByKind == nil {
			snap.Scheduler.ByKind = map[string]uint64{}
		}
		snap.Scheduler.ByKind[sched.DecisionKind(kind).String()] = n
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap.Mem = telemetry.MemStats{HeapAllocBytes: ms.HeapAlloc, TotalAllocs: ms.Mallocs}
	return snap
}
