// Package telemetry is the simulator's observability layer: structured
// span tracing, self-profiling counters, scheduler decision audits, and
// live progress reporting.
//
// The design constraint is zero overhead when disabled. Every consumer
// holds a *Tracer that may be nil; all Tracer methods are nil-safe no-ops,
// so the instrumented hot paths pay one pointer comparison and allocate
// nothing (asserted by a benchmark-guarded test). When a tracer is
// attached, events stream to pluggable sinks — a Chrome trace_event JSON
// exporter (openable in Perfetto or chrome://tracing) and a line-delimited
// JSON sink — as the simulation runs.
//
// Simulated time is the only clock that appears in traces; wall-clock
// measurements live exclusively in Snapshot (the self-profiling artifact),
// so simulation outputs stay deterministic whether or not telemetry is on.
//
// Live progress is not a hook: the simulation never calls into this
// package to report it. RunProgress (a terminal line) and ProgressFanOut
// (a broadcast to SSE streams) are plain values that the goroutine driving
// a run feeds with what it reads between the slices it advances.
package telemetry

import "fmt"

// TrackKind classifies the timeline an event belongs to.
type TrackKind uint8

// Track kinds. Jobs and nodes each get one timeline per entity; the
// scheduler has a single timeline for invocations and queue counters.
const (
	TrackJob TrackKind = iota
	TrackNode
	TrackScheduler
)

func (k TrackKind) String() string {
	switch k {
	case TrackJob:
		return "job"
	case TrackNode:
		return "node"
	case TrackScheduler:
		return "sched"
	default:
		return fmt.Sprintf("TrackKind(%d)", int(k))
	}
}

// Track identifies one timeline: a job, a node, or the scheduler.
type Track struct {
	Kind TrackKind
	ID   int
}

// JobTrack returns the timeline of one job.
func JobTrack(id int) Track { return Track{Kind: TrackJob, ID: id} }

// NodeTrack returns the timeline of one node.
func NodeTrack(id int) Track { return Track{Kind: TrackNode, ID: id} }

// SchedulerTrack is the scheduler's single timeline.
var SchedulerTrack = Track{Kind: TrackScheduler}

func (tr Track) String() string { return fmt.Sprintf("%s:%d", tr.Kind, tr.ID) }

// Phase is the event type, mirroring the Chrome trace_event phases.
type Phase byte

// Phases: span begin/end, instant event, and counter sample.
const (
	PhaseBegin   Phase = 'B'
	PhaseEnd     Phase = 'E'
	PhaseInstant Phase = 'i'
	PhaseCounter Phase = 'C'
)

// Arg is one key/value annotation on an event.
type Arg struct {
	Key   string
	Value any
}

// Event is one telemetry record. T is simulated seconds.
type Event struct {
	T     float64
	Phase Phase
	Track Track
	Name  string
	Args  []Arg
}

// Sink consumes a stream of events. Emit must tolerate being called with
// non-decreasing T per track (the simulator guarantees global time order).
// Sinks buffer their first write error and surface it from Close.
type Sink interface {
	Emit(ev Event)
	Close() error
}

// Tracer fans events out to sinks and carries the optional audit log. A
// nil *Tracer is valid and means "telemetry disabled": every method
// no-ops, so instrumentation sites need no separate guard for correctness
// (they still guard with Enabled() before building argument lists, to keep
// the disabled path allocation-free).
type Tracer struct {
	sinks []Sink
	audit *AuditLog
}

// New builds a tracer emitting to the given sinks.
func New(sinks ...Sink) *Tracer {
	return &Tracer{sinks: sinks}
}

// Enabled reports whether the tracer is live. It is the guard
// instrumentation sites use before assembling event arguments.
func (t *Tracer) Enabled() bool { return t != nil }

// SetAudit attaches a scheduler decision audit log.
func (t *Tracer) SetAudit(a *AuditLog) *Tracer {
	t.audit = a
	return t
}

// Audit returns the attached audit log, or nil.
func (t *Tracer) Audit() *AuditLog {
	if t == nil {
		return nil
	}
	return t.audit
}

// Emit forwards one event to every sink.
func (t *Tracer) Emit(ev Event) {
	if t == nil {
		return
	}
	for _, s := range t.sinks {
		s.Emit(ev)
	}
}

// Begin opens a span on a track.
func (t *Tracer) Begin(tr Track, name string, ts float64, args ...Arg) {
	if t == nil {
		return
	}
	t.Emit(Event{T: ts, Phase: PhaseBegin, Track: tr, Name: name, Args: args})
}

// End closes the innermost open span with the given name on a track.
func (t *Tracer) End(tr Track, name string, ts float64, args ...Arg) {
	if t == nil {
		return
	}
	t.Emit(Event{T: ts, Phase: PhaseEnd, Track: tr, Name: name, Args: args})
}

// Instant records a point event on a track.
func (t *Tracer) Instant(tr Track, name string, ts float64, args ...Arg) {
	if t == nil {
		return
	}
	t.Emit(Event{T: ts, Phase: PhaseInstant, Track: tr, Name: name, Args: args})
}

// Counter records a sampled value on a track (rendered as a graph by
// Chrome trace viewers).
func (t *Tracer) Counter(tr Track, name string, ts float64, value float64) {
	if t == nil {
		return
	}
	t.Emit(Event{T: ts, Phase: PhaseCounter, Track: tr, Name: name,
		Args: []Arg{{Key: "value", Value: value}}})
}

// Close closes every sink and the audit log, returning the first error.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	var first error
	for _, s := range t.sinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	if t.audit != nil {
		if err := t.audit.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
