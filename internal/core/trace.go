package core

import (
	"encoding/json"
	"fmt"

	"repro/internal/job"
	"repro/internal/metrics"
)

// TraceEventKind labels entries of the engine's event log.
type TraceEventKind string

// Trace event kinds.
const (
	EvSubmit          TraceEventKind = "submit"
	EvHeld            TraceEventKind = "held"
	EvReleased        TraceEventKind = "released"
	EvStart           TraceEventKind = "start"
	EvFinish          TraceEventKind = "finish"
	EvSchedulingPoint TraceEventKind = "scheduling-point"
	EvReconfigured    TraceEventKind = "reconfigured"
	EvEvolvingRequest TraceEventKind = "evolving-request"
	EvGranted         TraceEventKind = "granted"
	EvGrantApplied    TraceEventKind = "grant-applied"
	EvDenied          TraceEventKind = "denied"
	EvTaskStart       TraceEventKind = "task-start"
	EvTaskEnd         TraceEventKind = "task-end"
	// Failure subsystem events. Node events carry Job == NoJob and the
	// affected node in the Node field (they concern the machine, not a job).
	EvNodeDown   TraceEventKind = "node-down"
	EvNodeUp     TraceEventKind = "node-up"
	EvCheckpoint TraceEventKind = "checkpoint"
	EvRequeued   TraceEventKind = "requeued"
	EvFailShrink TraceEventKind = "shrink-on-failure"
)

// NoJob is the Job value of machine-level trace events (node failures and
// repairs), which concern no particular job.
const NoJob job.ID = -1

// NoNode is the Node value of job-level trace events.
const NoNode = -1

// TraceEvent is one entry of the optional event log: a typed record of one
// lifecycle transition, handed to Options.Trace as it is written. T, Kind,
// Job and Node say when, what and to whom; the payload fields an event
// sets depend on its Kind. The engine formats nothing: Detail, String and
// MarshalJSON render a record when it is read.
type TraceEvent struct {
	T    float64
	Kind TraceEventKind
	Job  job.ID // NoJob for machine-level events
	// Node is the affected node for machine-level events, NoNode otherwise.
	Node int

	JobType  job.Type          // submit
	TaskKind job.TaskKind      // task-start, task-end
	Status   metrics.JobStatus // finish
	Dur      float64           // task-end: the task's duration
	// From and To: the job's size before and after (start, reconfigured,
	// shrink-on-failure), held and wanted (evolving-request), the target
	// (To: granted, grant-applied).
	From, To   int
	FailedNode int   // shrink-on-failure
	Deps       int32 // held: unfinished dependencies
	// Phase, Iter and Task: the position of a scheduling point, checkpoint
	// or task; at requeued and a restart's start, the checkpoint resumed.
	Phase, Iter, Task int32
	Requeues          int32 // requeued, and start after a requeue
	Pending           bool  // finish: killed before it started
}

// Detail formats the payload as the text and JSON forms of the log show it
// ("" for events that carry none).
func (ev TraceEvent) Detail() string {
	switch ev.Kind {
	case EvSubmit:
		return "type=" + string(ev.JobType)
	case EvHeld:
		return fmt.Sprintf("deps=%d", ev.Deps)
	case EvStart:
		if ev.Requeues == 0 {
			return fmt.Sprintf("nodes=%d", ev.To)
		}
		return fmt.Sprintf("nodes=%d restart=%d ckpt=%d/%d", ev.To, ev.Requeues, ev.Phase, ev.Iter)
	case EvFinish:
		if ev.Pending {
			return "killed-pending"
		}
		return "status=" + string(ev.Status)
	case EvRequeued:
		return fmt.Sprintf("requeue=%d ckpt=%d/%d", ev.Requeues, ev.Phase, ev.Iter)
	case EvSchedulingPoint, EvCheckpoint:
		return fmt.Sprintf("phase=%d iter=%d", ev.Phase, ev.Iter)
	case EvTaskStart:
		return fmt.Sprintf("phase=%d iter=%d task=%d kind=%s", ev.Phase, ev.Iter, ev.Task, ev.TaskKind)
	case EvTaskEnd:
		return fmt.Sprintf("phase=%d iter=%d task=%d kind=%s dur=%.6f", ev.Phase, ev.Iter, ev.Task, ev.TaskKind, ev.Dur)
	case EvEvolvingRequest:
		return fmt.Sprintf("want=%d have=%d", ev.To, ev.From)
	case EvGranted, EvGrantApplied:
		return fmt.Sprintf("target=%d", ev.To)
	case EvReconfigured:
		return fmt.Sprintf("%d->%d", ev.From, ev.To)
	case EvFailShrink:
		return fmt.Sprintf("%d->%d node=%d", ev.From, ev.To, ev.FailedNode)
	}
	return ""
}

func (ev TraceEvent) String() string {
	subject := fmt.Sprintf("job%d", ev.Job)
	if ev.Job == NoJob {
		subject = fmt.Sprintf("node%d", ev.Node)
	}
	if detail := ev.Detail(); detail != "" {
		return fmt.Sprintf("%.3f %s %s %s", ev.T, ev.Kind, subject, detail)
	}
	return fmt.Sprintf("%.3f %s %s", ev.T, ev.Kind, subject)
}

// MarshalJSON encodes the record in the log's JSON form, with the payload
// rendered by Detail.
func (ev TraceEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		T      float64
		Kind   TraceEventKind
		Job    job.ID
		Node   int
		Detail string
	}{ev.T, ev.Kind, ev.Job, ev.Node, ev.Detail()})
}

// tracing reports whether any consumer of emit is attached.
func (e *Engine) tracing() bool { return e.opts.Trace != nil || e.opts.Telemetry.Enabled() }

// emit is the engine's one event hook. Call sites build ev on the stack
// and format nothing; emit is small enough to inline, so a run with
// neither consumer attached pays one check per event.
func (e *Engine) emit(jr *jobRun, ev TraceEvent) {
	if e.tracing() {
		e.record(jr, ev)
	}
}

// record stamps ev with the time and jr's job (jr is nil for node events)
// and hands it to each attached consumer, the span adapter and the log's
// consumer. Nothing keeps the record.
func (e *Engine) record(jr *jobRun, ev TraceEvent) {
	ev.T = e.Now()
	if jr != nil {
		ev.Job, ev.Node = jr.view.Job.ID, NoNode
	}
	if e.opts.Telemetry.Enabled() {
		e.telEvent(jr, ev)
	}
	if e.opts.Trace != nil {
		e.opts.Trace(ev)
	}
}
