package elastisim

import (
	"fmt"

	"repro/internal/obs"
)

// Observability re-exports. The obs package observes the system *running*
// simulations (the daemon, its queues, its sessions) where the telemetry
// package observes the simulations themselves; both share the same
// zero-interference contract.
type (
	// MetricsRegistry is a Prometheus-style metrics registry (counters,
	// gauges, fixed-bucket histograms) rendered by WritePrometheus.
	// Attach one via Config.Metrics; many sessions may share a registry.
	MetricsRegistry = obs.Registry
	// FlightRecorder is a bounded ring of recent system events, dumped as
	// a postmortem JSON artifact on panic, abort, or SIGQUIT. Attach one
	// via Config.Flight.
	FlightRecorder = obs.FlightRecorder
)

// NewMetricsRegistry creates an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewFlightRecorder creates a flight recorder retaining the last n
// entries (a package default when n <= 0).
func NewFlightRecorder(n int) *FlightRecorder { return obs.NewFlightRecorder(n) }

// sessionObs is the per-session instrumentation over a shared registry.
// Every hook is nil-safe: with Config.Metrics and Config.Flight unset,
// each call is a handful of nil checks and the session behaves (and
// allocates) exactly as before — pinned by TestObsDoesNotChangeOutputs.
type sessionObs struct {
	reg    *obs.Registry
	flight *obs.FlightRecorder
	// finished guards the once-per-session terminal accounting: partial
	// Result() calls while stepping must not double-count a session.
	finished bool
}

// newSessionObs wires the session counters and records the session's
// birth in the flight recorder.
func newSessionObs(cfg Config) *sessionObs {
	so := &sessionObs{reg: cfg.Metrics, flight: cfg.Flight}
	if so.reg != nil {
		so.reg.Help("elastisim_sessions_started_total", "sessions created by NewSession")
		so.reg.Help("elastisim_sessions_finished_total", "sessions that produced a final result, by abort reason")
		so.reg.Help("elastisim_session_aborts_total", "run slices stopped by context cancellation or deadline")
		so.reg.Help("elastisim_session_panics_total", "sessions poisoned by an internal engine panic")
		so.reg.Counter("elastisim_sessions_started_total").Inc()
	}
	if so.flight != nil {
		jobs := 0
		if cfg.Workload != nil {
			jobs = len(cfg.Workload.Jobs)
		}
		algo := "?"
		if cfg.Algorithm != nil {
			algo = cfg.Algorithm.Name()
		}
		so.flight.Recordf("session", "created: %d jobs, algorithm %s", jobs, algo)
	}
	return so
}

// recordAbort counts one cancelled/deadline-stopped run slice. Sessions
// stay resumable after these, so they are counted per occurrence, not
// per session.
func (so *sessionObs) recordAbort(reason AbortReason) {
	if so == nil {
		return
	}
	if so.reg != nil {
		so.reg.Counter(fmt.Sprintf("elastisim_session_aborts_total{reason=%q}", reason.String())).Inc()
	}
	so.flight.Recordf("session", "run slice aborted: %s", reason)
}

// recordPanic counts the session's poisoning and preserves the panic in
// the flight ring (the postmortem artifact quotes it verbatim).
func (so *sessionObs) recordPanic(ie *InternalError) {
	if so == nil {
		return
	}
	so.reg.Counter("elastisim_session_panics_total").Inc()
	so.flight.Recordf("panic", "session poisoned at sim t=%.3fs after %d events: %s", ie.SimTime, ie.Events, ie.Msg)
}

// recordFinish runs exactly once per session, when a final Result is
// cached, and exports the run's existing counters — kernel, scheduler,
// solver — into the shared registry. Nothing here is re-counted: the
// values come off the Result and its telemetry snapshot.
func (so *sessionObs) recordFinish(res *Result, reason AbortReason) {
	if so == nil || so.finished {
		return
	}
	so.finished = true
	if so.reg != nil {
		so.reg.Counter(fmt.Sprintf("elastisim_sessions_finished_total{reason=%q}", reason.String())).Inc()
		so.reg.Help("elastisim_sim_events_total", "DES kernel events fired across finished sessions")
		so.reg.Counter("elastisim_sim_events_total").Add(res.Events)
		so.reg.Counter("elastisim_sim_invocations_total").Add(res.Invocations)
		so.reg.Counter("elastisim_sim_invocations_elided_total").Add(res.Telemetry.Scheduler.Elided)
		so.reg.Counter("elastisim_sim_decisions_total").Add(res.Decisions)
		so.reg.Counter("elastisim_sim_solves_total").Add(res.Solves)
		so.reg.Counter("elastisim_sim_jobs_total").Add(uint64(len(res.Records)))
		ks := res.Telemetry.Kernel
		so.reg.Counter("elastisim_sim_events_cancelled_total").Add(ks.Cancelled)
		so.reg.Gauge("elastisim_sim_peak_queue", nil).SetMax(float64(ks.PeakQueue))
	}
	so.flight.Recordf("session", "finished (%s): makespan=%.3fs events=%d invocations=%d jobs=%d",
		reason, res.Summary.Makespan, res.Events, res.Invocations, len(res.Records))
}
