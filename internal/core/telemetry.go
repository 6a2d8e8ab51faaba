package core

import (
	"runtime"

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

// telEvent maps one engine event onto span tracks: a job event onto the
// job's track and onto the tracks of the nodes it gives or takes (at every
// event that moves nodes jr.nodes still holds all of them), a node event
// onto the node's outage span. Only called with telemetry enabled.
func (e *Engine) telEvent(jr *jobRun, ev TraceEvent) {
	tel := e.opts.Telemetry
	tr, now := telemetry.JobTrack(int(ev.Job)), ev.T
	switch ev.Kind {
	case EvNodeDown:
		tel.Begin(telemetry.NodeTrack(ev.Node), "outage", now)
	case EvNodeUp:
		tel.End(telemetry.NodeTrack(ev.Node), "outage", now)
	case EvSubmit:
		tel.Begin(tr, "wait", now, telemetry.Arg{Key: "type", Value: string(ev.JobType)})
	case EvStart:
		tel.End(tr, "wait", now)
		tel.Begin(tr, "run", now, telemetry.Arg{Key: "nodes", Value: ev.To})
		e.telNodeSpans(jr, jr.nodes, true)
	case EvFinish, EvRequeued:
		if ev.Pending {
			tel.End(tr, "wait", now)
			return
		}
		e.telNodeSpans(jr, jr.nodes, false)
		e.telCloseTask(jr)
		e.telEndReconfig(jr)
		if ev.Kind == EvFinish {
			tel.End(tr, "run", now, telemetry.Arg{Key: "status", Value: string(ev.Status)})
			return
		}
		tel.End(tr, "run", now)
		tel.Begin(tr, "wait", now, telemetry.Arg{Key: "detail", Value: ev.Detail()})
	case EvReconfigured:
		e.telNodeSpans(jr, jr.nodes[min(ev.From, ev.To):max(ev.From, ev.To)], ev.To > ev.From)
		tel.Instant(tr, string(ev.Kind), now, telemetry.Arg{Key: "detail", Value: ev.Detail()})
	case EvFailShrink:
		tel.End(telemetry.NodeTrack(ev.FailedNode), jr.label(), now)
		tel.Instant(tr, string(ev.Kind), now, telemetry.Arg{Key: "detail", Value: ev.Detail()})
	case EvTaskStart:
		tel.Begin(tr, "task", now, telemetry.Arg{Key: "detail", Value: ev.Detail()})
		jr.telTaskOpen = true
	case EvTaskEnd:
		tel.End(tr, "task", now)
		jr.telTaskOpen = false
	case EvReleased, EvDenied:
		tel.Instant(tr, string(ev.Kind), now)
	default:
		// Everything else is a point event on the job's track.
		tel.Instant(tr, string(ev.Kind), now, telemetry.Arg{Key: "detail", Value: ev.Detail()})
	}
}

// telNodeSpans opens (begin) or closes the job's span on each node's track.
func (e *Engine) telNodeSpans(jr *jobRun, nodes []platform.NodeID, begin bool) {
	ph, label := telemetry.PhaseEnd, jr.label()
	if begin {
		ph = telemetry.PhaseBegin
	}
	for _, n := range nodes {
		e.opts.Telemetry.Emit(telemetry.Event{T: e.Now(), Phase: ph, Track: telemetry.NodeTrack(int(n)), Name: label})
	}
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
