package core

import (
	"fmt"

	"repro/internal/job"
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

// TraceEvent is one entry of the optional event log.
type TraceEvent struct {
	T    float64
	Kind TraceEventKind
	Job  job.ID // NoJob for machine-level events
	// Node is the affected node for machine-level events, NoNode otherwise.
	Node   int
	Detail string
}

func (ev TraceEvent) String() string {
	subject := fmt.Sprintf("job%d", ev.Job)
	if ev.Job == NoJob {
		subject = fmt.Sprintf("node%d", ev.Node)
	}
	if ev.Detail == "" {
		return fmt.Sprintf("%.3f %s %s", ev.T, ev.Kind, subject)
	}
	return fmt.Sprintf("%.3f %s %s %s", ev.T, ev.Kind, subject, ev.Detail)
}

// tracing reports whether any consumer of traceEvent is attached. Call
// sites that format a detail string check it first, so a run with neither
// Options.Trace nor a tracer formats (and allocates) nothing per event.
func (e *Engine) tracing() bool { return e.opts.Trace || e.opts.Telemetry.Enabled() }

// traceEvent is the unified event hook: the in-memory TraceEvent log and
// the telemetry span adapter are both consumers, so either can be enabled
// without the other and the log stays bit-identical when telemetry is off.
func (e *Engine) traceEvent(kind TraceEventKind, id job.ID, detail string) {
	if e.opts.Telemetry.Enabled() {
		e.telJobEvent(kind, id, detail)
	}
	if !e.opts.Trace {
		return
	}
	e.trace = append(e.trace, TraceEvent{T: e.Now(), Kind: kind, Job: id, Node: NoNode, Detail: detail})
}

// traceNodeEvent is traceEvent for machine-level events (node down/up).
func (e *Engine) traceNodeEvent(kind TraceEventKind, node int, detail string) {
	if e.opts.Telemetry.Enabled() {
		e.telNodeEvent(kind, node)
	}
	if !e.opts.Trace {
		return
	}
	e.trace = append(e.trace, TraceEvent{T: e.Now(), Kind: kind, Job: NoJob, Node: node, Detail: detail})
}
