// Package elastisim is the public API of the ElastiSim reproduction: a
// batch-system simulator for malleable workloads.
//
// A simulation couples three ingredients:
//
//   - a platform (PlatformSpec): compute nodes, network, parallel file
//     system, and optional burst buffers;
//   - a workload (Workload): rigid, moldable, malleable, and evolving jobs
//     whose behaviour is described by phase/task application models with
//     performance-model expressions;
//   - a scheduling algorithm (Algorithm): either one of the built-ins
//     (FCFS, EASY and conservative backfilling, SJF, and the
//     malleability-aware adaptive policy) or user code implementing the
//     Algorithm interface.
//
// Minimal use:
//
//	spec := elastisim.HomogeneousPlatform("cluster", 128, 100e9, 10e9, 80e9, 60e9)
//	wl, _ := elastisim.GenerateWorkload(elastisim.WorkloadConfig{ ... })
//	res, err := elastisim.Run(elastisim.Config{
//		Platform:  spec,
//		Workload:  wl,
//		Algorithm: elastisim.NewAdaptive(),
//	})
//	fmt.Println(res.Summary.Makespan, res.Summary.Utilization)
package elastisim

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/failure"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/viz"
)

// Re-exported model types. The underlying packages are internal; these
// aliases are the supported surface.
type (
	// PlatformSpec describes the simulated cluster.
	PlatformSpec = platform.Spec
	// NodeGroupSpec describes a homogeneous group of nodes.
	NodeGroupSpec = platform.NodeGroupSpec
	// NetworkSpec describes the interconnect.
	NetworkSpec = platform.NetworkSpec
	// StorageSpec describes the PFS.
	StorageSpec = platform.StorageSpec
	// BurstBufferSpec describes the burst-buffer tier.
	BurstBufferSpec = platform.BurstBufferSpec
	// Quantity is a float64 that unmarshals from a JSON number or an
	// engineering-suffixed expression string ("100G").
	Quantity = platform.Quantity
	// FailureSpec describes a node failure/repair model (MTBF/MTTR
	// processes or scripted outages) plus the job-recovery policy.
	FailureSpec = failure.Spec
	// Outage is one scripted node outage of the trace failure model.
	Outage = failure.Outage
	// RecoveryPolicy selects how jobs hit by a node failure recover
	// (see the Recover* constants).
	RecoveryPolicy = failure.RecoveryPolicy
	// JobStatus is a job's terminal outcome (see the Status* constants).
	JobStatus = metrics.JobStatus

	// Workload is an ordered collection of jobs.
	Workload = job.Workload
	// Job is one workload entry.
	Job = job.Job
	// Application is a job's phase/task behaviour model.
	Application = job.Application
	// Phase is a stage of an application.
	Phase = job.Phase
	// Task is one step of a phase.
	Task = job.Task
	// Model is a performance model (expression or vector).
	Model = job.Model
	// WorkloadConfig drives the synthetic workload generator.
	WorkloadConfig = job.Config

	// Algorithm is the scheduling-policy interface.
	Algorithm = sched.Algorithm
	// Invocation is the cluster snapshot an Algorithm schedules against.
	Invocation = sched.Invocation
	// JobView is a read-only job view inside an Invocation. The engine
	// keeps it current between invocations: an algorithm must not write
	// into it or retain it. Besides the Job it carries copies of the
	// job's scheduling bounds (Type, MinNodes, MaxNodes, ReqNodes, and
	// WallTime, +Inf when the job has none), made by the constructor
	// sched.NewJobView; a view built by hand must come from it too.
	JobView = sched.JobView
	// Decision is one scheduling action.
	Decision = sched.Decision

	// Options tunes engine behaviour (invocation interval, tracing, ...).
	Options = core.Options
	// Summary aggregates a finished run.
	Summary = metrics.Summary
	// JobRecord is the per-job outcome.
	JobRecord = metrics.JobRecord
	// Recorder holds the full metric state of a run.
	Recorder = metrics.Recorder
	// Timeline is a step function of time (busy nodes, utilization).
	Timeline = metrics.Timeline
	// TraceEvent is one entry of the engine's optional event log.
	TraceEvent = core.TraceEvent

	// Tracer is the telemetry fan-out; attach one via Options.Telemetry to
	// stream span traces to sinks. A nil Tracer (the default) disables
	// telemetry at zero cost.
	Tracer = telemetry.Tracer
	// TelemetrySink consumes telemetry events (see NewChromeTraceSink and
	// NewJSONLTraceSink).
	TelemetrySink = telemetry.Sink
	// TelemetrySnapshot is the self-profiling artifact of a run: DES kernel,
	// fluid solver, and scheduler counters plus wall-clock/heap data.
	TelemetrySnapshot = telemetry.Snapshot
	// AuditLog records every scheduler invocation with its decisions and
	// grant/deny reasons; attach via Tracer.SetAudit.
	AuditLog = telemetry.AuditLog
	// RunProgress renders a run's progress as a terminal status line; the
	// caller feeds it from Session.Peek.
	RunProgress = telemetry.RunProgress
	// ProgressFanOut broadcasts one run's progress stream to any number
	// of concurrent subscribers (SSE streams); the goroutine driving the
	// session feeds it between slices.
	ProgressFanOut = telemetry.ProgressFanOut
	// ProgressUpdate is one sampled progress point of a ProgressFanOut.
	ProgressUpdate = telemetry.ProgressUpdate
)

// NoJob marks machine-level trace events (node down/up), which carry the
// affected node in TraceEvent.Node instead of a job id.
const NoJob = core.NoJob

// NewTracer builds a telemetry tracer emitting to the given sinks.
func NewTracer(sinks ...TelemetrySink) *Tracer { return telemetry.New(sinks...) }

// NewChromeTraceSink streams Chrome trace_event JSON (Perfetto-loadable)
// to w. Close the tracer to terminate the JSON document.
func NewChromeTraceSink(w io.Writer) TelemetrySink { return telemetry.NewChromeSink(w) }

// NewJSONLTraceSink streams line-delimited JSON telemetry events to w.
func NewJSONLTraceSink(w io.Writer) TelemetrySink { return telemetry.NewJSONLSink(w) }

// NewAuditLog streams scheduler decision audit records as JSON lines to w.
func NewAuditLog(w io.Writer) *AuditLog { return telemetry.NewAuditLog(w) }

// Job type classes, re-exported.
const (
	Rigid     = job.Rigid
	Moldable  = job.Moldable
	Malleable = job.Malleable
	Evolving  = job.Evolving
)

// Failure models, re-exported.
const (
	FailureExponential = failure.ModelExponential
	FailureWeibull     = failure.ModelWeibull
	FailureTrace       = failure.ModelTrace
)

// Job recovery policies after node failures, re-exported.
const (
	RecoverShrink  = failure.RecoverShrink
	RecoverRequeue = failure.RecoverRequeue
	RecoverKill    = failure.RecoverKill
)

// Job completion statuses, re-exported.
const (
	StatusCompleted       = metrics.StatusCompleted
	StatusKilledWalltime  = metrics.StatusKilledWalltime
	StatusKilledScheduler = metrics.StatusKilledScheduler
	StatusFailedNode      = metrics.StatusFailedNode
	StatusRequeued        = metrics.StatusRequeued
)

// Config assembles one simulation run.
type Config struct {
	// Platform describes the cluster.
	Platform *PlatformSpec
	// Workload lists the jobs.
	Workload *Workload
	// Algorithm is the scheduling policy (see NewAlgorithm for built-ins).
	Algorithm Algorithm
	// Failures injects node failures and repairs (nil = none). It
	// overrides any "failures" object in the platform spec.
	Failures *FailureSpec
	// Options tunes the engine.
	Options Options

	// Metrics, when set, receives operational counters about the session
	// (sessions started/finished/aborted, kernel and scheduler totals on
	// finish) in the shared Prometheus-style registry. Flight, when set,
	// records session lifecycle events into the crash flight recorder.
	// Both are runtime-only wiring — never part of a serialized config —
	// and nil (the default) disables them with no observable effect on
	// the simulation (pinned by TestObsDoesNotChangeOutputs).
	Metrics *MetricsRegistry
	Flight  *FlightRecorder
}

// Result is the outcome of a run.
type Result struct {
	// Summary aggregates batch metrics (makespan, waits, utilization...).
	Summary Summary
	// Records lists per-job outcomes in submission order.
	Records []*JobRecord
	// Recorder exposes timelines, Gantt segments, and CSV/JSON export.
	Recorder *Recorder
	// Invocations and Decisions count scheduler activity; Events counts
	// simulator events (for simulator-performance experiments).
	Invocations uint64
	Decisions   uint64
	Events      uint64
	// Solves counts fluid-solver recomputations and SolvedActivities the
	// total activities re-solved across them; the incremental solver
	// drives the latter well below the full-recompute baseline.
	Solves           uint64
	SolvedActivities uint64
	// Warnings lists rejected decisions and other anomalies.
	Warnings []string
	// Trace is the event log (when Options.Trace was set).
	Trace []TraceEvent
	// Telemetry is the run's self-profiling snapshot: kernel, solver, and
	// scheduler counters (always deterministic) plus wall-clock and heap
	// measurements (machine-dependent; see TelemetrySnapshot.StripWall).
	Telemetry TelemetrySnapshot
	// WallClock is the host time the simulation took.
	WallClock time.Duration
	// Abort records how the run ended: AbortDrained for natural
	// completion, AbortHorizon when Options.Horizon (or a RunUntil bound)
	// cut it short, AbortCancelled/AbortDeadline when a context stopped a
	// Session run mid-flight (the Result then holds partial metrics).
	Abort AbortReason
}

// Run executes one simulation to completion. It is exactly
// NewSession(cfg) followed by Session.Run with a background context; use
// a Session directly for cancellation, bounded execution, stepping, or
// live progress snapshots.
func Run(cfg Config) (*Result, error) {
	s, err := NewSession(cfg)
	if err != nil {
		return nil, err
	}
	return s.Run(context.Background())
}

// WriteGanttSVG renders the run's allocation segments as an SVG Gantt
// chart: one colored band per job, reconfigurations marked at segment
// boundaries, and node failure/repair intervals overlaid as hatched bands.
func (r *Result) WriteGanttSVG(w io.Writer, title string) error {
	return viz.WriteGantt(w, r.Recorder, viz.Options{Title: title})
}

// WriteUtilizationSVG renders the busy-nodes timeline as an SVG step plot.
func (r *Result) WriteUtilizationSVG(w io.Writer, title string) error {
	return viz.WriteUtilization(w, r.Recorder, viz.Options{Title: title})
}

// EstimateRuntime computes a job's contention-free analytic runtime on n
// nodes (see the job package's estimator for assumptions).
func EstimateRuntime(j *Job, n int, ref job.PlatformRef) (float64, error) {
	return job.EstimateRuntime(j, n, ref)
}

// PlatformRef carries the magnitudes EstimateRuntime needs (re-export).
type PlatformRef = job.PlatformRef

// HomogeneousPlatform builds a uniform cluster: nodes at nodeSpeed flops/s,
// star network with linkBW bytes/s injection links, and a PFS with the
// given aggregate read/write bandwidths.
func HomogeneousPlatform(name string, nodes int, nodeSpeed, linkBW, pfsRead, pfsWrite float64) *PlatformSpec {
	return platform.Homogeneous(name, nodes, nodeSpeed, linkBW, pfsRead, pfsWrite)
}

// LoadPlatform reads and validates a JSON platform description.
func LoadPlatform(path string) (*PlatformSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return platform.ParseSpec(data)
}

// LoadWorkload reads and validates a JSON workload for a machine of
// totalNodes nodes.
func LoadWorkload(path string, totalNodes int) (*Workload, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return job.ParseWorkload(data, totalNodes)
}

// GenerateWorkload builds a reproducible synthetic workload.
func GenerateWorkload(cfg WorkloadConfig) (*Workload, error) {
	return job.Generate(cfg)
}

// WorkloadStream generates the same jobs as GenerateWorkload one at a time
// in constant memory (re-export; see job.Stream).
type WorkloadStream = job.Stream

// NewWorkloadStream starts streaming the synthetic workload cfg describes.
func NewWorkloadStream(cfg WorkloadConfig) (*WorkloadStream, error) {
	return job.NewStream(cfg)
}

// LoadSWF converts a Standard Workload Format trace into a workload.
func LoadSWF(path string, opts job.SWFOptions) (*Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return job.ParseSWF(f, opts)
}

// SWFOptions configures SWF conversion (re-export).
type SWFOptions = job.SWFOptions

// Built-in algorithm constructors.

// NewFCFS returns strict first-come-first-served.
func NewFCFS() Algorithm { return &sched.FCFS{} }

// NewEASY returns EASY backfilling.
func NewEASY() Algorithm { return &sched.EASY{} }

// NewConservative returns conservative backfilling.
func NewConservative() Algorithm { return &sched.Conservative{} }

// NewSJF returns shortest-job-first.
func NewSJF() Algorithm { return &sched.SJF{} }

// NewAdaptive returns the malleability-aware policy (EASY starts +
// shrink-to-admit + expand-to-fill + evolving arbitration).
func NewAdaptive() Algorithm { return &sched.Adaptive{} }

// NewFirstFit returns list scheduling (start whatever fits, no
// reservations) — the baseline that motivates backfilling.
func NewFirstFit() Algorithm { return &sched.FirstFit{} }

// NewFairShare returns usage-ordered scheduling with EASY backfilling:
// users with less accumulated consumption go first. The returned value is
// stateful and must be used for a single simulation run.
func NewFairShare() Algorithm { return &sched.FairShare{} }

// NewPacked returns EASY with locality-packed placement: start decisions
// are pinned to node sets spanning as few leaf switches as possible
// (meaningful on tree topologies).
func NewPacked() Algorithm { return &sched.Packed{} }

// algorithmFactories maps names to constructors for NewAlgorithm.
var algorithmFactories = map[string]func() Algorithm{
	"fcfs":         NewFCFS,
	"easy":         NewEASY,
	"conservative": NewConservative,
	"sjf":          NewSJF,
	"adaptive":     NewAdaptive,
	"firstfit":     NewFirstFit,
	"fairshare":    NewFairShare,
	"packed":       NewPacked,
}

// NewAlgorithm builds a built-in algorithm by name; see AlgorithmNames.
func NewAlgorithm(name string) (Algorithm, error) {
	f, ok := algorithmFactories[name]
	if !ok {
		return nil, fmt.Errorf("elastisim: unknown algorithm %q (have %v)", name, AlgorithmNames())
	}
	return f(), nil
}

// AlgorithmNames lists the built-in algorithms.
func AlgorithmNames() []string {
	names := make([]string, 0, len(algorithmFactories))
	for n := range algorithmFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
