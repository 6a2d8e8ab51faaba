// Package core implements the batch-system simulation engine — the
// reproduction's primary contribution. It couples the platform model
// (fluid resources), the workload model (jobs with phase/task
// applications), and a scheduling algorithm into a deterministic
// discrete-event simulation with first-class support for rigid, moldable,
// malleable, and evolving jobs.
//
// The engine owns all mutable state. The scheduling algorithm only ever
// sees read-only snapshots and answers with decisions, every one of which
// is validated before being applied (node accounting, flexibility-class
// rules, scheduling-point legality). Invalid decisions are dropped and
// recorded as warnings, so buggy algorithms degrade loudly but safely.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/des"
	"repro/internal/failure"
	"repro/internal/fluid"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// PriorityResume orders job-resume events after scheduler invocations at
// the same timestamp, so that a job pausing at a scheduling point gives the
// algorithm a chance to reconfigure it before it continues.
const PriorityResume = des.PriorityScheduler + 10

// prioritySubmit orders job-submission events between activity completions
// and engine bookkeeping at a shared timestamp. It pins the ordering the
// original one-event-per-job arming produced structurally (submission
// events were scheduled first, so their sequence numbers were globally
// smallest): submissions at a timestamp run after activity completions but
// before every other engine event, independent of scheduling history.
const prioritySubmit = des.PriorityEngine - 5

// Options tune engine behaviour.
type Options struct {
	// InvocationInterval adds periodic scheduler invocations every given
	// number of seconds (0 = purely event-driven).
	InvocationInterval float64
	// EventDriven disables event-triggered invocations when false is NOT
	// what you want — it defaults to true; set DisableEventDriven to turn
	// them off (ablation: periodic-only scheduling). New rejects it without
	// a positive InvocationInterval: nothing would ever invoke the algorithm.
	DisableEventDriven bool
	// Fairness selects the fluid sharing policy (ablation).
	Fairness fluid.Fairness
	// Trace enables the event log (memory-proportional to event count).
	Trace bool
	// TraceTasks additionally logs every task start/end with its phase,
	// iteration, kind, and duration — the raw material for calibrating
	// application models. Implies substantial log volume; requires Trace.
	TraceTasks bool
	// Horizon aborts the simulation at this virtual time (0 = none).
	Horizon float64
	// DisableFastPath forces every task through the fluid solver, even
	// work on job-private resources (own nodes, own links) that cannot
	// contend and whose duration is therefore a closed form. The fast
	// path is exactly equivalent (tested) and much cheaper on large
	// machines; this switch exists for the equivalence tests and the
	// simulator-performance ablation.
	DisableFastPath bool
	// Failures injects node failures and repairs (nil = none). It takes
	// precedence over the platform spec's "failures" object, letting one
	// platform file drive both clean and degraded runs.
	Failures *failure.Spec
	// Telemetry attaches the observability layer (nil = disabled, the
	// zero-overhead default). Spans for jobs, nodes, and the scheduler
	// stream to the tracer's sinks; an attached audit log records every
	// scheduler invocation. Telemetry never alters simulation outputs.
	Telemetry *telemetry.Tracer
	// Progress attaches a live progress sink driven from the kernel's
	// event loop (nil = disabled): a telemetry.RunProgress for a stderr
	// ticker, or a telemetry.ProgressFanOut to broadcast to multiple
	// concurrent observers.
	Progress telemetry.Progress
}

// Engine is a single-run batch-system simulator. Create with New, run with
// Run, inspect with Recorder/Summary. An Engine is not reusable.
type Engine struct {
	kernel *des.Kernel
	pool   *fluid.Pool
	plat   *platform.Platform
	alloc  *platform.Allocator
	algo   sched.Algorithm
	opts   Options
	rec    *metrics.Recorder

	workload *job.Workload
	runs     *runTable
	queue    runList // pending, submission order
	running  runList // start order

	// Dependency tracking: dependents maps a job to the held jobs waiting
	// on it (finished-ness is read off the run table's terminal state).
	dependents map[job.ID][]*jobRun

	// Failure injection: injector is nil when disabled, and every other
	// field stays untouched in that case (runs are bit-identical to an
	// engine without the subsystem).
	injector  *failure.Injector
	nodeDown  []bool
	downCount int

	invocationScheduled bool
	pendingReasons      sched.Reason
	invocations         uint64
	invocationsElided   uint64

	// Same-timestamp invocation batching: stateEpoch counts every mutation
	// a scheduler snapshot could observe (each coincides with either a
	// requestInvocation call or an applied decision). An invocation whose
	// timestamp and epoch both match the previous one would hand the
	// algorithm a bit-identical snapshot, so it is elided.
	stateEpoch      uint64
	lastInvokeT     float64
	lastInvokeEpoch uint64

	// Snapshot reuse: the invocation view handed to the algorithm is
	// rebuilt in place each time (algorithms must not retain it — see
	// sched.Algorithm), so steady-state invocations allocate nothing.
	snapInv     sched.Invocation
	snapViews   []sched.JobView
	snapPending []*sched.JobView
	snapRunning []*sched.JobView
	snapFree    []int
	snapDown    []int
	// wantFreeList gates the O(total nodes) FreeList materialisation per
	// snapshot to algorithms that declare they read it (sched.FreeListUser).
	wantFreeList      bool
	decisionsApplied  uint64
	decisionsRejected uint64
	decisionsByKind   [5]uint64 // applied decisions, indexed by sched.DecisionKind
	wallRun           time.Duration
	wallSched         time.Duration
	warnings          []string
	trace             []TraceEvent
	outstanding       int // jobs not yet finished
	ran               bool
	started           bool // Start armed the initial events
	progressDone      bool // Options.Progress ticker already terminated
	telFinalized      bool // open telemetry spans force-closed after abort
}

// CancelCheckEvents is how many kernel events fire between context polls
// during RunCtx/RunUntilCtx. Batched so a pending ctx.Done() costs one
// integer compare per event on the hot path; coarse enough that the select
// is noise, fine enough that cancellation lands within microseconds of
// wall time on realistic event rates.
const CancelCheckEvents = 1024

// CheckOptions rejects option combinations that cannot simulate anything.
// New applies it, and so does elastisim.ParseConfig, so that a daemon
// refuses such a document at submission instead of in a worker.
func CheckOptions(opts Options) error {
	if opts.DisableEventDriven && !(opts.InvocationInterval > 0) { // also NaN
		return fmt.Errorf("core: disable_event_driven without a positive invocation_interval never invokes the scheduler (Options.DisableEventDriven, Options.InvocationInterval)")
	}
	return nil
}

// New builds an engine for one simulation run on a fresh kernel and an
// incremental fluid pool. The workload must already validate against the
// platform.
func New(spec *platform.Spec, w *job.Workload, algo sched.Algorithm, opts Options) (*Engine, error) {
	kernel := des.NewKernel()
	return NewOn(kernel, fluid.NewPool(kernel), spec, w, algo, opts)
}

// NewOn is New on a caller-supplied kernel and the fluid pool bound to it.
// It is how the equivalence tests run an engine on the full-recompute
// reference solver (a pool in SetForceFullSolve mode); nothing outside a
// _test.go file sets that mode, so no configuration, flag or wire document
// reaches it.
func NewOn(kernel *des.Kernel, pool *fluid.Pool, spec *platform.Spec, w *job.Workload, algo sched.Algorithm, opts Options) (*Engine, error) {
	if algo == nil {
		return nil, fmt.Errorf("core: nil scheduling algorithm")
	}
	if err := CheckOptions(opts); err != nil {
		return nil, err
	}
	pool.SetFairness(opts.Fairness)
	plat, err := platform.Build(spec, pool)
	if err != nil {
		return nil, err
	}
	if err := w.Validate(plat.NumNodes()); err != nil {
		return nil, err
	}
	for _, j := range w.Jobs {
		if err := checkPlatformSupport(plat, j); err != nil {
			return nil, err
		}
	}
	e := &Engine{
		kernel:      kernel,
		pool:        pool,
		plat:        plat,
		alloc:       platform.NewAllocator(plat.NumNodes()),
		algo:        algo,
		opts:        opts,
		rec:         metrics.NewRecorder(plat.NumNodes()),
		workload:    w,
		runs:        newRunTable(w),
		dependents:  make(map[job.ID][]*jobRun),
		lastInvokeT: math.Inf(-1),
	}
	if u, ok := algo.(sched.FreeListUser); ok && u.WantsFreeList() {
		e.wantFreeList = true
	}
	fs := opts.Failures
	if fs == nil {
		fs = spec.Failures
	}
	inj, err := failure.NewInjector(fs, plat.NumNodes())
	if err != nil {
		return nil, err
	}
	if inj != nil {
		e.injector = inj
		e.nodeDown = make([]bool, plat.NumNodes())
	}
	return e, nil
}

// checkPlatformSupport rejects workloads using storage tiers the platform
// does not provide; failing early beats a mid-simulation panic.
func checkPlatformSupport(plat *platform.Platform, j *job.Job) error {
	for pi := range j.App.Phases {
		for ti := range j.App.Phases[pi].Tasks {
			t := &j.App.Phases[pi].Tasks[ti]
			switch t.Kind {
			case job.TaskRead, job.TaskWrite:
				if t.Target == job.TargetPFS && !plat.HasPFS() {
					return fmt.Errorf("core: job %s uses the PFS but the platform has none", j.Label())
				}
				if t.Target == job.TargetBB && !plat.HasBurstBuffer() {
					return fmt.Errorf("core: job %s uses burst buffers but the platform has none", j.Label())
				}
			}
		}
	}
	return nil
}

// Run executes the simulation to completion and returns the metrics
// recorder. It may only be called once; session-style drivers use the
// resumable Start/RunCtx/RunUntilCtx/StepN/Finish primitives instead.
func (e *Engine) Run() (*metrics.Recorder, error) {
	if e.ran {
		return nil, fmt.Errorf("core: engine already ran")
	}
	e.ran = true
	e.RunCtx(context.Background())
	return e.Finish()
}

// Start arms the initial event set — job submissions, failure injection,
// periodic scheduler invocations, the horizon, and the progress hook —
// without executing anything. It is idempotent; every bounded-run entry
// point calls it, so explicit use is only needed to observe the pre-run
// state (e.g. Pending before the first event).
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
	e.ran = true
	e.outstanding = len(e.workload.Jobs)
	e.armSubmissions()
	if e.injector != nil {
		for n := 0; n < e.plat.NumNodes(); n++ {
			e.scheduleOutage(n, 0)
		}
	}
	if e.opts.InvocationInterval > 0 && e.outstanding > 0 {
		e.schedulePeriodic()
	}
	if e.opts.Horizon > 0 {
		e.kernel.SetHorizon(des.Time(e.opts.Horizon))
	}
	if p := e.opts.Progress; p != nil {
		e.kernel.SetProgress(telemetry.EveryEvents, func() {
			p.Tick(e.Now(), e.kernel.Steps())
		})
	}
}

// armSubmissions schedules the workload's submissions as a chain of batch
// events — one transient kernel event per distinct submit time, each
// submitting every job due at its timestamp and arming the next link —
// instead of one closure-carrying event per job. A million-job workload
// thus arms in O(1) queue space and allocates nothing per job beyond its
// run-table slot. Submissions run at prioritySubmit, reproducing the exact
// intra-timestamp ordering of per-job arming.
func (e *Engine) armSubmissions() {
	jobs := e.workload.Jobs
	if len(jobs) == 0 {
		return
	}
	// Workloads from ParseWorkload/Generate are sorted by submit time; a
	// hand-assembled one may not be, so fall back to a stably-sorted index
	// (preserving workload order within a timestamp, which is the order
	// per-job arming would have fired in).
	at := func(i int) *job.Job { return jobs[i] }
	for i := 1; i < len(jobs); i++ {
		if jobs[i].SubmitTime < jobs[i-1].SubmitTime {
			idx := make([]int, len(jobs))
			for k := range idx {
				idx[k] = k
			}
			sort.SliceStable(idx, func(a, b int) bool {
				return jobs[idx[a]].SubmitTime < jobs[idx[b]].SubmitTime
			})
			at = func(i int) *job.Job { return jobs[idx[i]] }
			break
		}
	}
	next := 0
	var step func()
	step = func() {
		now := float64(e.kernel.Now())
		for next < len(jobs) && at(next).SubmitTime <= now {
			j := at(next)
			next++
			e.submit(j)
		}
		if next < len(jobs) {
			e.kernel.ScheduleTransient(des.Time(at(next).SubmitTime), prioritySubmit, step)
		}
	}
	e.kernel.ScheduleTransient(des.Time(at(0).SubmitTime), prioritySubmit, step)
}

// RunCtx executes events until the queue drains, the options horizon is
// reached, or ctx is done, and reports which of those stopped it. The
// engine stays resumable after a cancelled or horizon-bounded return:
// calling RunCtx (or RunUntilCtx/StepN) again continues exactly where the
// previous call stopped, and the resulting simulation is bit-identical to
// an uninterrupted run regardless of how execution was sliced.
func (e *Engine) RunCtx(ctx context.Context) AbortReason {
	return e.runBounded(ctx, des.Infinity)
}

// RunUntilCtx executes events with time <= t (clamped to the options
// horizon) and then advances the clock to the bound, unless ctx stops the
// run first.
func (e *Engine) RunUntilCtx(ctx context.Context, t float64) AbortReason {
	return e.runBounded(ctx, des.Time(t))
}

// runBounded is the shared bounded-execution loop behind RunCtx and
// RunUntilCtx. A bound of des.Infinity means "no bound beyond the options
// horizon" and leaves the clock at the last event executed; a finite bound
// advances the clock to the bound on a clean return (RunUntil contract).
func (e *Engine) runBounded(ctx context.Context, bound des.Time) AbortReason {
	e.Start()
	if e.Drained() {
		// Already complete: report that truthfully even under a
		// cancelled context.
		return AbortDrained
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return abortReasonForCtx(err)
	}
	if done := ctx.Done(); done != nil {
		e.kernel.SetStopCheck(CancelCheckEvents, func() bool {
			select {
			case <-done:
				return true
			default:
				return false
			}
		})
		defer e.kernel.SetStopCheck(0, nil)
	}
	t0 := time.Now()
	var err error
	if bound == des.Infinity {
		err = e.kernel.Run()
	} else {
		err = e.kernel.RunUntil(bound)
	}
	e.wallRun += time.Since(t0)
	if err == des.ErrStopped {
		return abortReasonForCtx(ctx.Err())
	}
	if e.Drained() {
		return AbortDrained
	}
	return AbortHorizon
}

// StepN executes up to n events and returns how many fired. Zero means the
// queue is drained (or past the horizon): the simulation cannot advance.
func (e *Engine) StepN(n int) int {
	e.Start()
	t0 := time.Now()
	fired := e.kernel.StepN(n)
	e.wallRun += time.Since(t0)
	return fired
}

// Drained reports whether the event queue is empty — no further event can
// ever fire, bounded or not. Before Start nothing is armed yet, so a
// fresh engine is not drained.
func (e *Engine) Drained() bool { return e.started && e.kernel.Pending() == 0 }

// Finish terminates the progress ticker and returns the metrics recorder,
// diagnosing a drained-but-unfinished workload as a deadlock (an algorithm
// that never starts some jobs) unless a horizon legitimately cut the run
// short. It is safe to call on an aborted engine: the recorder then holds
// the partial metrics accumulated so far.
func (e *Engine) Finish() (*metrics.Recorder, error) {
	if p := e.opts.Progress; p != nil && !e.progressDone {
		e.progressDone = true
		p.Done()
	}
	if e.Drained() && e.outstanding > 0 && e.opts.Horizon == 0 {
		return nil, fmt.Errorf("core: simulation deadlocked with %d unfinished jobs (algorithm %q never started them?)", e.outstanding, e.algo.Name())
	}
	return e.rec, nil
}

// Recorder returns the metrics recorder (valid after Run).
func (e *Engine) Recorder() *metrics.Recorder { return e.rec }

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return float64(e.kernel.Now()) }

// Steps returns the number of kernel events executed.
func (e *Engine) Steps() uint64 { return e.kernel.Steps() }

// KernelStats samples the DES kernel's lifetime counters (events
// scheduled/fired/cancelled, queue high-water mark). Operational metrics
// export these directly instead of re-counting on the hot path.
func (e *Engine) KernelStats() des.KernelStats { return e.kernel.Stats() }

// Invocations returns how many times the algorithm was invoked.
func (e *Engine) Invocations() uint64 { return e.invocations }

// TotalJobs returns the workload size.
func (e *Engine) TotalJobs() int { return len(e.workload.Jobs) }

// Outstanding returns the number of jobs not yet finished (including jobs
// not yet submitted). Valid mid-run; it reaches zero exactly when the
// workload completed. Before Start the whole workload is outstanding.
func (e *Engine) Outstanding() int {
	if !e.started {
		return len(e.workload.Jobs)
	}
	return e.outstanding
}

// QueuedJobs returns the number of jobs currently pending in the queue.
func (e *Engine) QueuedJobs() int { return e.queue.count }

// RunningJobs returns the number of jobs currently holding nodes.
func (e *Engine) RunningJobs() int { return e.running.count }

// Solves returns how many fluid-solver recomputations ran.
func (e *Engine) Solves() uint64 { return e.pool.Solves() }

// SolvedActivities returns the cumulative number of activities the fluid
// solver re-solved — the work metric incremental component solving cuts
// relative to the full-recompute baseline.
func (e *Engine) SolvedActivities() uint64 { return e.pool.SolvedActivities() }

// DecisionsApplied returns how many decisions passed validation.
func (e *Engine) DecisionsApplied() uint64 { return e.decisionsApplied }

// Warnings lists rejected decisions and other non-fatal anomalies.
func (e *Engine) Warnings() []string { return e.warnings }

// Trace returns the event log (empty unless Options.Trace).
func (e *Engine) Trace() []TraceEvent { return e.trace }

// Platform exposes the built platform (read-only use).
func (e *Engine) Platform() *platform.Platform { return e.plat }

func (e *Engine) warnf(format string, args ...any) {
	e.warnings = append(e.warnings, fmt.Sprintf("t=%.3f: ", e.Now())+fmt.Sprintf(format, args...))
}

// submit registers a job. Jobs with unfinished dependencies are held;
// the rest enter the pending queue immediately.
func (e *Engine) submit(j *job.Job) {
	jr := e.runs.alloc(j)
	jr.state = statePending
	e.rec.JobSubmitted(j, e.Now())
	if e.tracing() {
		e.traceEvent(EvSubmit, j.ID, fmt.Sprintf("type=%s", j.Type))
	}
	for _, dep := range j.Dependencies {
		if !e.isFinished(dep) {
			jr.depsLeft++
			e.dependents[dep] = append(e.dependents[dep], jr)
		}
	}
	if jr.depsLeft > 0 {
		jr.state = stateHeld
		if e.tracing() {
			e.traceEvent(EvHeld, j.ID, fmt.Sprintf("deps=%d", jr.depsLeft))
		}
		return
	}
	e.queue.add(jr)
	e.requestInvocation(sched.ReasonSubmit)
}

// isFinished reports whether id reached a terminal state ("afterany"
// dependency semantics: completed and killed both count). A job that was
// never submitted is not finished.
func (e *Engine) isFinished(id job.ID) bool {
	jr := e.runs.get(id)
	return jr != nil && jr.state == stateDone
}

// markFinished releases dependents whose last dependency this was
// ("afterany": killed jobs satisfy dependencies too).
func (e *Engine) markFinished(id job.ID) {
	for _, jr := range e.dependents[id] {
		jr.depsLeft--
		if jr.depsLeft == 0 && jr.state == stateHeld {
			jr.state = statePending
			e.queue.add(jr)
			e.traceEvent(EvReleased, jr.job.ID, "")
			e.requestInvocation(sched.ReasonSubmit)
		}
	}
	delete(e.dependents, id)
}

// schedulePeriodic arms the next periodic invocation while work remains.
func (e *Engine) schedulePeriodic() {
	e.kernel.ScheduleTransientAfter(des.Time(e.opts.InvocationInterval), des.PriorityScheduler, func() {
		if e.outstanding == 0 {
			return
		}
		e.pendingReasons |= sched.ReasonPeriodic
		e.invoke()
		e.schedulePeriodic()
	})
}

// requestInvocation coalesces event-driven scheduler invocations: all
// triggers at one timestamp yield a single invocation that runs after
// activity completions (priority ordering). Every call marks a state
// change, which is what lets invoke batch away a redundant same-timestamp
// re-invocation (see stateEpoch).
func (e *Engine) requestInvocation(reason sched.Reason) {
	e.stateEpoch++
	e.pendingReasons |= reason
	if e.opts.DisableEventDriven {
		return
	}
	if e.invocationScheduled {
		return
	}
	e.invocationScheduled = true
	e.kernel.ScheduleTransientAfter(0, des.PriorityScheduler, func() {
		e.invocationScheduled = false
		e.invoke()
	})
}

// invoke snapshots the state, runs the algorithm, applies its decisions.
// With telemetry attached it additionally emits scheduler-track events and
// an audit record: everything the scheduler saw, everything it decided,
// and why rejected decisions were rejected.
func (e *Engine) invoke() {
	now := e.Now()
	if e.invocations > 0 && now == e.lastInvokeT && e.stateEpoch == e.lastInvokeEpoch {
		// An invocation already ran at this exact timestamp and nothing it
		// could observe has changed since (no new trigger, no applied
		// decision): a second call would hand the algorithm a bit-identical
		// snapshot — the pending reasons are the only delta — and apply the
		// same outcome. Batch it away. This collapses the periodic tick and
		// the event-driven invocation landing on one timestamp into a
		// single algorithm call.
		e.pendingReasons = 0
		e.invocationsElided++
		return
	}
	reasons := e.pendingReasons
	e.pendingReasons = 0
	inv := e.snapshot(reasons)
	e.invocations++
	t0 := time.Now()
	decisions := e.algo.Schedule(inv)
	e.wallSched += time.Since(t0)

	tel := e.opts.Telemetry
	var audit *telemetry.AuditRecord
	if tel.Enabled() {
		tel.Counter(telemetry.SchedulerTrack, "queue_depth", inv.Now, float64(len(inv.Pending)))
		tel.Counter(telemetry.SchedulerTrack, "free_nodes", inv.Now, float64(inv.FreeNodes))
		tel.Instant(telemetry.SchedulerTrack, "invoke", inv.Now,
			telemetry.Arg{Key: "reasons", Value: reasons.String()},
			telemetry.Arg{Key: "decisions", Value: len(decisions)})
		if tel.Audit() != nil {
			audit = &telemetry.AuditRecord{
				T:          inv.Now,
				Invocation: e.invocations,
				Reasons:    reasons.String(),
				QueueDepth: len(inv.Pending),
				Running:    len(inv.Running),
				FreeNodes:  inv.FreeNodes,
				DownNodes:  len(inv.DownNodes),
			}
		}
	}
	for _, d := range decisions {
		err := e.apply(d)
		if audit != nil {
			ad := telemetry.AuditDecision{
				Kind: d.Kind.String(), Job: int(d.Job), NumNodes: d.NumNodes, Applied: err == nil,
			}
			if err != nil {
				ad.Reason = err.Error()
			}
			audit.Decisions = append(audit.Decisions, ad)
		}
		if err != nil {
			e.warnf("rejected %v: %v", d, err)
			e.decisionsRejected++
			continue
		}
		e.stateEpoch++ // applied decisions change what a snapshot would see
		e.decisionsApplied++
		if k := int(d.Kind); k >= 0 && k < len(e.decisionsByKind) {
			e.decisionsByKind[k]++
		}
	}
	if audit != nil {
		tel.Audit().Record(*audit)
	}
	e.lastInvokeT = now
	e.lastInvokeEpoch = e.stateEpoch
}

// snapshot builds the read-only invocation view. The Invocation, its
// JobViews, and every slice hang off reusable engine buffers (algorithms
// must not retain them — the sched.Algorithm contract), so a steady-state
// invocation performs no allocation at all.
func (e *Engine) snapshot(reasons sched.Reason) *sched.Invocation {
	inv := &e.snapInv
	*inv = sched.Invocation{
		Now:        e.Now(),
		Reasons:    reasons,
		FreeNodes:  e.alloc.Free(),
		TotalNodes: e.alloc.Total(),
	}
	if e.wantFreeList {
		e.snapFree = e.snapFree[:0]
		for _, id := range e.alloc.FreeNodes() {
			e.snapFree = append(e.snapFree, int(id))
		}
		inv.FreeList = e.snapFree
	}
	if e.plat.IsTree() {
		inv.GroupSize = e.plat.Spec().Network.GroupSize
	}
	if e.downCount > 0 {
		e.snapDown = e.snapDown[:0]
		for n, d := range e.nodeDown {
			if d {
				e.snapDown = append(e.snapDown, n)
			}
		}
		inv.DownNodes = e.snapDown
	}
	// Size the view slab up front: pointers into it must stay stable while
	// the pending/running lists are filled.
	need := e.queue.count + e.running.count
	if cap(e.snapViews) < need {
		e.snapViews = make([]sched.JobView, need+need/2)
	}
	views := e.snapViews[:cap(e.snapViews)]
	vi := 0
	e.snapPending = e.snapPending[:0]
	for _, jr := range e.queue.items {
		if jr == nil {
			continue
		}
		v := &views[vi]
		vi++
		e.fillView(v, jr)
		e.snapPending = append(e.snapPending, v)
	}
	e.snapRunning = e.snapRunning[:0]
	for _, jr := range e.running.items {
		if jr == nil {
			continue
		}
		v := &views[vi]
		vi++
		e.fillView(v, jr)
		e.snapRunning = append(e.snapRunning, v)
	}
	inv.Pending = e.snapPending
	inv.Running = e.snapRunning
	return inv
}

func (e *Engine) fillView(v *sched.JobView, jr *jobRun) {
	*v = sched.JobView{
		ID:         jr.job.ID,
		Job:        jr.job,
		SubmitTime: jr.job.SubmitTime,
	}
	switch jr.state {
	case statePending:
		v.State = sched.StatePending
	default:
		v.State = sched.StateRunning
		v.Nodes = len(jr.nodes)
		v.StartTime = jr.startTime
		v.AtSchedulingPoint = jr.state == stateAtSchedPoint
		v.EvolvingRequest = jr.evolvingRequest
		if jr.job.WallTimeLimit > 0 {
			v.ExpectedEnd = jr.startTime + jr.job.WallTimeLimit
		} else {
			v.ExpectedEnd = math.Inf(1)
		}
	}
}
