package elastisim

import (
	"context"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/core"
)

// AbortReason reports why a bounded simulation run returned control; see
// the Abort* constants. Result.Abort carries it, and Session.RunUntil
// returns it directly.
type AbortReason = core.AbortReason

// Abort reasons, re-exported.
const (
	// AbortDrained: the event queue emptied — the simulation ran to
	// natural completion.
	AbortDrained = core.AbortDrained
	// AbortCancelled: the context was cancelled between slices.
	AbortCancelled = core.AbortCancelled
	// AbortDeadline: the context's deadline expired between slices.
	AbortDeadline = core.AbortDeadline
	// AbortHorizon: the run hit a virtual-time bound (Options.Horizon or
	// the RunUntil target) with events still queued.
	AbortHorizon = core.AbortHorizon
)

// InternalError reports an engine invariant violation (an internal panic)
// caught at the public API boundary. It means a bug in the simulator, not
// in the caller's configuration: the session that produced it is poisoned
// and every subsequent call returns the same error.
type InternalError struct {
	// Msg is the panic message.
	Msg string
	// SimTime is the simulation clock when the invariant tripped.
	SimTime float64
	// Events is the number of events executed up to that point.
	Events uint64
	// Stack is the goroutine stack captured at the panic site.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("elastisim: internal error at sim time %g after %d events: %s", e.SimTime, e.Events, e.Msg)
}

// Peek is a live, read-only snapshot of a session mid-run, cheap enough to
// take between slices — from another goroutine while Run is in flight, too.
type Peek struct {
	// Now is the simulation clock in seconds.
	Now float64
	// Events is the number of events executed so far.
	Events uint64
	// Queued and Running count jobs currently waiting and allocated;
	// Completed counts jobs that reached a terminal state, out of Total.
	Queued, Running, Completed, Total int
	// Done reports that the event queue is empty: the simulation cannot
	// advance further.
	Done bool
	// Summary aggregates the metrics accumulated so far. Mid-run it covers
	// only finished jobs and the timeline up to Now.
	Summary Summary
}

// Session is one simulation with an explicit lifecycle: build it with
// NewSession (full validation, no execution), then drive it with any mix
// of Run, RunUntil, and Step, observing progress through Now and Peek.
//
// Execution slicing is invisible to the simulation: a session driven by a
// thousand Step calls, by RunUntil increments, or by one Run produces
// bit-identical results. Run(cfg) is exactly NewSession(cfg) followed by
// Run(context.Background()).
//
// A Session is safe for use from multiple goroutines. Calls serialize on
// an internal mutex, which Run and RunUntil hold for one slice of
// sliceEvents events at a time, so Peek, Now and Step answer while a run
// is in flight. Distinct Sessions are fully independent: they share no
// mutable state and may run concurrently.
type Session struct {
	mu       sync.Mutex
	eng      *core.Engine
	wall     time.Duration
	internal *InternalError // set once an invariant panic poisons the session
	result   *Result        // cached once the simulation completed
	obs      *sessionObs    // operational metrics + flight recorder hooks
}

// NewSession validates the configuration and builds a simulation without
// executing any of it. All config-dependent failures surface here as
// errors — including ones that would otherwise trip engine invariants
// later, like scripted outages naming nodes the platform does not have.
// Malformed configurations return errors, never panic.
func NewSession(cfg Config) (s *Session, err error) {
	defer func() {
		if r := recover(); r != nil {
			s, err = nil, fmt.Errorf("elastisim: invalid config: %v", r)
		}
	}()
	if cfg.Platform == nil || cfg.Workload == nil {
		return nil, fmt.Errorf("elastisim: config needs a platform and a workload")
	}
	if cfg.Algorithm == nil {
		return nil, fmt.Errorf("elastisim: config needs a scheduling algorithm")
	}
	spec := cfg.Platform
	if cfg.Failures != nil {
		cp := *spec
		cp.Failures = cfg.Failures
		spec = &cp
	}
	eng, err := core.New(spec, cfg.Workload, cfg.Algorithm, cfg.Options)
	if err != nil {
		return nil, err
	}
	return &Session{eng: eng, obs: newSessionObs(cfg)}, nil
}

// guard runs fn, converting an engine invariant panic into an
// *InternalError that poisons the session. Callers hold s.mu.
func (s *Session) guard(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ie := &InternalError{
				Msg:     fmt.Sprint(r),
				SimTime: s.eng.Now(),
				Events:  s.eng.Steps(),
				Stack:   debug.Stack(),
			}
			s.internal = ie
			s.obs.recordPanic(ie)
			err = ie
		}
	}()
	fn()
	return nil
}

// sliceEvents is how many events one Run or RunUntil slice fires. The
// session mutex is held for one slice and released between slices, so the
// slice bounds how long Peek, Now and Step wait and how late a cancelled
// context is noticed, while its lock round trip, context poll and clock
// reads stay out of the profile.
const sliceEvents = 1024

// Run executes the simulation until it completes or ctx is done.
//
// On completion it returns the full Result (with Abort == AbortDrained,
// or AbortHorizon when Options.Horizon cut the run short) and a nil
// error. On cancellation it returns BOTH a partial Result — the metrics
// and telemetry accumulated so far, with Abort recording why —
// and ctx.Err(), so callers can flush partial outputs before unwinding.
// The session stays resumable after a cancelled Run: calling Run again
// continues exactly where it stopped. Concurrent Runs on one session
// interleave their slices and return the same Result.
func (s *Session) Run(ctx context.Context) (*Result, error) {
	reason, err := s.RunUntil(ctx, math.Inf(1))
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.internal != nil {
		return nil, s.internal
	}
	if s.result != nil {
		return s.result, nil
	}
	res, rerr := s.resultLocked(reason)
	if rerr != nil {
		return nil, rerr
	}
	if err != nil {
		return res, err
	}
	s.result = res
	s.obs.recordFinish(res, reason)
	return res, nil
}

// RunUntil executes events up to simulation time t (clamped to
// Options.Horizon) and advances the clock to t, unless ctx stops the run
// or the queue drains first. The returned reason tells which; the error
// is ctx.Err() when the context stopped the run, nil otherwise. A run the
// context stopped leaves the clock at its last event.
//
// It is the loop behind Run, too (with t = +Inf, which never moves the
// clock): events fire in slices of sliceEvents, each under the mutex,
// until the queue drains, t is reached, ctx is done, or the session is
// poisoned.
func (s *Session) RunUntil(ctx context.Context, t float64) (AbortReason, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		reason, more, err := s.slice(ctx, t)
		if err != nil || !more {
			return reason, err
		}
	}
}

// slice runs one slice of RunUntil under the mutex. A drained engine reports
// AbortDrained before the context is looked at, so completion is truthful
// even under a cancelled context; more reports that the slice used up its
// budget and the run can go on.
func (s *Session) slice(ctx context.Context, bound float64) (reason AbortReason, more bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.internal != nil {
		return AbortCancelled, false, s.internal
	}
	gerr := s.guard(func() {
		s.eng.Start()
		if s.eng.Drained() {
			reason = AbortDrained
			return
		}
		if err = ctx.Err(); err != nil {
			reason = AbortCancelled
			if err == context.DeadlineExceeded {
				reason = AbortDeadline
			}
			s.obs.recordAbort(reason)
			return
		}
		t0 := time.Now()
		fired := s.eng.Advance(bound, sliceEvents)
		s.wall += time.Since(t0)
		switch {
		case fired == sliceEvents:
			more = true
		case s.eng.Drained():
			reason = AbortDrained
		default:
			reason = AbortHorizon
		}
	})
	if gerr != nil {
		return AbortDrained, false, gerr
	}
	return reason, more, err
}

// Step executes up to n events and returns how many fired. Zero means the
// simulation cannot advance (queue drained or past the horizon).
func (s *Session) Step(n int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.internal != nil {
		return 0, s.internal
	}
	var fired int
	if err := s.guard(func() {
		t0 := time.Now()
		fired = s.eng.Advance(math.Inf(1), n)
		s.wall += time.Since(t0)
	}); err != nil {
		return 0, err
	}
	return fired, nil
}

// Now returns the current simulation time in seconds.
func (s *Session) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng.Now()
}

// Peek returns a live snapshot of the session's progress. It is valid at
// any point in the lifecycle, including before the first event and after
// completion.
func (s *Session) Peek() Peek {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := s.eng.TotalJobs()
	return Peek{
		Now:       s.eng.Now(),
		Events:    s.eng.Steps(),
		Queued:    s.eng.QueuedJobs(),
		Running:   s.eng.RunningJobs(),
		Completed: total - s.eng.Outstanding(),
		Total:     total,
		Done:      s.eng.Drained(),
		Summary:   s.eng.Recorder().Summary(),
	}
}

// Result assembles the metrics accumulated so far into a Result without
// running anything further. Use it after driving the session with Step or
// RunUntil; Run produces the same Result itself. If the simulation has
// not completed, the Result is partial and Abort is AbortHorizon.
func (s *Session) Result() (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.internal != nil {
		return nil, s.internal
	}
	if s.result != nil {
		return s.result, nil
	}
	reason := AbortHorizon
	if s.eng.Drained() {
		reason = AbortDrained
	}
	res, err := s.resultLocked(reason)
	if err != nil {
		return nil, err
	}
	if reason == AbortDrained {
		s.result = res
		s.obs.recordFinish(res, reason)
	}
	return res, nil
}

// resultLocked finalizes the engine state into a Result. When the run was
// cut short it first force-closes open telemetry spans so streamed traces
// stay well-nested. Callers hold s.mu.
func (s *Session) resultLocked(reason AbortReason) (res *Result, err error) {
	gerr := s.guard(func() {
		if reason != AbortDrained {
			s.eng.FinalizeTelemetry()
		}
		var rec *Recorder
		rec, err = s.eng.Finish()
		if err != nil {
			return
		}
		tel := s.eng.TelemetrySnapshot()
		res = &Result{
			Summary:          rec.Summary(),
			Records:          rec.Records(),
			Recorder:         rec,
			Invocations:      tel.Scheduler.Invocations,
			Decisions:        tel.Scheduler.Applied,
			Events:           tel.Kernel.Fired,
			Solves:           tel.Solver.Solves,
			SolvedActivities: tel.Solver.SolvedActivities,
			Warnings:         s.eng.Warnings(),
			Telemetry:        tel,
			WallClock:        s.wall,
			Abort:            reason,
		}
	})
	if gerr != nil {
		return nil, gerr
	}
	return res, err
}
