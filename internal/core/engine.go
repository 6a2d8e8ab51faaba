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
	// path is exactly equivalent and much cheaper on large machines. Its
	// only setters are ablation A5 (internal/experiments) and the
	// fast-path equivalence tests (hetero_test.go, invariants_test.go);
	// the config document has no key for it.
	DisableFastPath bool
	// Telemetry attaches the observability layer (nil = disabled, the
	// zero-overhead default). Spans for jobs, nodes, and the scheduler
	// stream to the tracer's sinks; an attached audit log records every
	// scheduler invocation. Telemetry never alters simulation outputs.
	Telemetry *telemetry.Tracer
}

// Engine is a single-run batch-system simulator. Create with New, drive
// with Advance, close with Finish. An Engine is not reusable.
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
	// on it (finished-ness is read off the run table, runTable.finished).
	dependents map[job.ID][]*jobRun

	// Failure injection: injector is nil when disabled, and every other
	// field stays untouched in that case (runs are bit-identical to an
	// engine without the subsystem). down lists the failed nodes in
	// ascending order; invocations hand it out as DownNodes.
	injector *failure.Injector
	down     []int

	invocationScheduled bool
	pendingReasons      sched.Reason
	invocations         uint64
	invocationsElided   uint64

	// Same-timestamp invocation batching: stateEpoch counts triggers
	// (requestInvocation calls). An invocation records the epoch as of its
	// snapshot, so a trigger raised while its decisions are applied (a kill
	// freeing nodes, a dependent released) still earns a re-invocation; one
	// whose timestamp and epoch both match the previous snapshot's would
	// see no new trigger, so it is elided.
	stateEpoch      uint64
	lastInvokeT     float64
	lastInvokeEpoch uint64

	// Snapshot reuse: the Invocation handed to the algorithm is refilled
	// in place each time (algorithms must not retain it — see
	// sched.Algorithm). Each job's JobView lives in its run and is kept
	// current at every state change, and the Pending and Running slices
	// change only with their list's membership, from the first position
	// that changed (see runList.viewList), so steady-state invocations
	// allocate nothing and touch no view.
	snapInv  sched.Invocation
	snapFree []int
	// tenv is the expression environment every task model evaluates in,
	// and renv the one reconfiguration costs evaluate in (it wraps tenv).
	tenv taskEnv
	renv reconfigEnv
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
	outstanding       int  // jobs not yet finished
	started           bool // Start armed the initial events
	telFinalized      bool // open telemetry spans force-closed after abort
}

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
// platform. The spec's Failures, if any, is the run's failure model.
func New(spec *platform.Spec, w *job.Workload, algo sched.Algorithm, opts Options) (*Engine, error) {
	if algo == nil {
		return nil, fmt.Errorf("core: nil scheduling algorithm")
	}
	if err := CheckOptions(opts); err != nil {
		return nil, err
	}
	kernel := des.NewKernel()
	pool := fluid.NewPool(kernel)
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
	e.rec.Expect(len(w.Jobs))
	if u, ok := algo.(sched.FreeListUser); ok && u.WantsFreeList() {
		e.wantFreeList = true
	}
	inj, err := failure.NewInjector(spec.Failures, plat.NumNodes())
	if err != nil {
		return nil, err
	}
	e.injector = inj
	e.tenv.total = float64(plat.NumNodes())
	e.renv.task = &e.tenv
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

// Start arms the initial event set — job submissions, failure injection,
// periodic scheduler invocations and the horizon — without executing
// anything. It is idempotent and Advance calls it, so explicit use is only
// needed to observe the pre-run state (e.g. Pending before the first
// event).
func (e *Engine) Start() {
	if e.started {
		return
	}
	e.started = true
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

// Advance is the engine's one bounded run primitive: it starts the run if
// needed, fires at most n events at or before min(bound, Options.Horizon)
// and returns how many fired (see des.Kernel.Advance; +Inf is no bound).
// It stops nowhere else and calls nothing back, so drivers slice a run
// into calls and read progress, poll cancellation and answer Peek between
// them. Any slicing yields a simulation bit-identical to one call.
func (e *Engine) Advance(bound float64, n int) int {
	e.Start()
	t0 := time.Now()
	fired := e.kernel.Advance(des.Time(bound), n)
	e.wallRun += time.Since(t0)
	return fired
}

// Drained reports whether the event queue is empty — no further event can
// ever fire, bounded or not. Before Start nothing is armed yet, so a
// fresh engine is not drained.
func (e *Engine) Drained() bool { return e.started && e.kernel.Pending() == 0 }

// Finish returns the metrics recorder, diagnosing a drained-but-unfinished workload as a deadlock (an algorithm
// that never starts some jobs) unless a horizon legitimately cut the run
// short. It is safe to call on an aborted engine: the recorder then holds
// the partial metrics accumulated so far.
func (e *Engine) Finish() (*metrics.Recorder, error) {
	if e.Drained() && e.outstanding > 0 && e.opts.Horizon == 0 {
		return nil, fmt.Errorf("core: simulation deadlocked with %d unfinished jobs (algorithm %q never started them?)", e.outstanding, e.algo.Name())
	}
	return e.rec, nil
}

// Recorder returns the metrics recorder.
func (e *Engine) Recorder() *metrics.Recorder { return e.rec }

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return float64(e.kernel.Now()) }

// Steps returns the number of kernel events executed.
func (e *Engine) Steps() uint64 { return e.kernel.Steps() }

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
	if jr.onTaskDone == nil {
		jr.onTaskDone = func() { e.taskDone(jr) }
	}
	jr.setState(statePending)
	jr.rec = e.rec.JobSubmitted(j, jr.label(), e.Now())
	if e.tracing() {
		e.traceEvent(EvSubmit, j.ID, fmt.Sprintf("type=%s", j.Type))
	}
	// "afterany" semantics: completed and killed dependencies both count as
	// finished; one that was never submitted does not.
	for _, dep := range j.Dependencies {
		if !e.runs.finished(dep) {
			jr.depsLeft++
			e.dependents[dep] = append(e.dependents[dep], jr)
		}
	}
	if jr.depsLeft > 0 {
		jr.setState(stateHeld)
		if e.tracing() {
			e.traceEvent(EvHeld, j.ID, fmt.Sprintf("deps=%d", jr.depsLeft))
		}
		return
	}
	e.queue.add(jr)
	e.requestInvocation(sched.ReasonSubmit)
}

// markFinished releases dependents whose last dependency this was
// ("afterany": killed jobs satisfy dependencies too).
func (e *Engine) markFinished(id job.ID) {
	for _, jr := range e.dependents[id] {
		jr.depsLeft--
		if jr.depsLeft == 0 && jr.state == stateHeld {
			jr.setState(statePending)
			e.queue.add(jr)
			e.traceEvent(EvReleased, jr.view.Job.ID, "")
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
		// An invocation already ran at this exact timestamp and no trigger
		// was raised since its snapshot: the only changes are its own
		// applied decisions, which the algorithm already accounted for.
		// Batch it away. This collapses the periodic tick and the
		// event-driven invocation landing on one timestamp into a single
		// algorithm call.
		e.pendingReasons = 0
		e.invocationsElided++
		return
	}
	reasons := e.pendingReasons
	e.pendingReasons = 0
	e.lastInvokeT, e.lastInvokeEpoch = now, e.stateEpoch
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
		e.decisionsApplied++
		if k := int(d.Kind); k >= 0 && k < len(e.decisionsByKind) {
			e.decisionsByKind[k]++
		}
	}
	if audit != nil {
		tel.Audit().Record(*audit)
	}
}

// snapshot builds the read-only invocation view. The Invocation and its
// slices hang off reusable engine buffers and the views live in the runs
// (algorithms must not retain any of them — the sched.Algorithm contract),
// so a steady-state invocation performs no allocation and fills no view.
func (e *Engine) snapshot(reasons sched.Reason) *sched.Invocation {
	inv := &e.snapInv
	*inv = sched.Invocation{
		Now:        e.Now(),
		Reasons:    reasons,
		Pending:    e.queue.viewList(),
		Running:    e.running.viewList(),
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
	if len(e.down) > 0 {
		inv.DownNodes = e.down
	}
	return inv
}
