package distwork

import (
	"fmt"

	"repro/internal/obs"
)

// storeMetrics holds the store's precreated instruments. Every field is
// nil when observability is detached, and every obs method is nil-safe,
// so the hot paths carry no conditionals.
//
// Instruments are created here, up front, and never from inside a store
// method: per-state gauges are callback-backed and take s.mu at scrape
// time, so creating a series while holding s.mu would invert the lock
// order against a concurrent scrape.
//
// Series names carry Options.MetricPrefix, so each consumer keeps its
// own families: the daemon exports elastisimd_tasks /
// elastisimd_task_claims_total / ..., the sweep grid sweep_tasks /
// sweep_task_claims_total / ...
type storeMetrics struct {
	flight         *obs.FlightRecorder
	submitted      *obs.Counter
	claims         *obs.Counter
	batchClaims    *obs.Counter // claim-batch operations that claimed >= 1 task
	steals         *obs.Counter // re-claims of tasks a previous worker held
	expirations    *obs.Counter
	heartbeats     *obs.Counter
	releases       *obs.Counter
	finished       map[State]*obs.Counter // terminal-state transitions
	fsync          *obs.Histogram
	compactions    *obs.Counter // journal rewrites (one per successful Open)
	journalErrors  *obs.Counter // latched journal write failures
	journalAppends *obs.Counter // records appended to the journal
	groupCommits   *obs.Counter // batched fsync rounds (group-commit mode)
}

func newStoreMetrics[P any](s *Store[P], o Options[P]) storeMetrics {
	m := storeMetrics{flight: o.Flight}
	reg := o.Metrics
	if reg == nil {
		return m
	}
	name := func(suffix string) string { return o.MetricPrefix + suffix }
	reg.Help(name("_tasks"), "tasks currently in each lifecycle state")
	reg.Help(name("_tasks_finished_total"), "tasks that reached a terminal state")
	reg.Help(name("_lease_expirations_total"), "claims lost to a lapsed lease and requeued")
	reg.Help(name("_task_steals_total"), "tasks re-claimed after a previous worker lost or released them")
	reg.Help(name("_journal_fsync_seconds"), "latency of one journaled transition (write+flush+fsync) or one group commit")
	reg.Help(name("_journal_compactions_total"), "journal compactions (rewrite to one record per task on open)")
	reg.Help(name("_journal_errors_total"), "journal write failures; after the first the journal stops appending")
	reg.Help(name("_journal_appends_total"), "journal records appended")
	reg.Help(name("_journal_group_commits_total"), "batched journal fsync rounds (group-commit mode)")
	reg.Help(name("_task_batch_claims_total"), "claim-batch operations that handed out at least one task")
	for _, st := range States {
		st := st
		reg.Gauge(fmt.Sprintf("%s{state=%q}", name("_tasks"), st), func() float64 {
			return float64(s.countState(st))
		})
	}
	m.submitted = reg.Counter(name("_tasks_submitted_total"))
	m.claims = reg.Counter(name("_task_claims_total"))
	m.batchClaims = reg.Counter(name("_task_batch_claims_total"))
	m.steals = reg.Counter(name("_task_steals_total"))
	m.expirations = reg.Counter(name("_lease_expirations_total"))
	m.heartbeats = reg.Counter(name("_heartbeats_total"))
	m.releases = reg.Counter(name("_task_releases_total"))
	m.finished = make(map[State]*obs.Counter)
	for _, st := range []State{StateDone, StateFailed, StateCancelled} {
		m.finished[st] = reg.Counter(fmt.Sprintf("%s{state=%q}", name("_tasks_finished_total"), st))
	}
	m.fsync = reg.Histogram(name("_journal_fsync_seconds"), obs.DefLatencyBuckets)
	m.compactions = reg.Counter(name("_journal_compactions_total"))
	m.journalErrors = reg.Counter(name("_journal_errors_total"))
	m.journalAppends = reg.Counter(name("_journal_appends_total"))
	m.groupCommits = reg.Counter(name("_journal_group_commits_total"))
	return m
}
