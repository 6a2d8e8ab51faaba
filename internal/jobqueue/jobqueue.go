// Package jobqueue names the distwork instantiation elastisimd runs on:
// a Job is a distwork.Task whose payload is the submitted config
// document, a Queue the store of them, journaled under ids j000001… with
// elastisimd_* metric families. The lifecycle state machine, lease/steal
// contract, Runner contract, and journal format are documented on
// package distwork.
package jobqueue

import (
	"encoding/json"
	"time"

	"repro/internal/distwork"
	"repro/internal/obs"
)

type (
	// State is a job's lifecycle state.
	State = distwork.State
	// Job is one submitted simulation: Payload is the combined config
	// document, Result the artifact directory once it finished.
	Job = distwork.Task[json.RawMessage]
	// Queue is the job store; see distwork.Store for its methods.
	Queue = distwork.Store[json.RawMessage]
	// Pool runs claimed jobs on a fixed set of worker goroutines.
	Pool = distwork.Pool[json.RawMessage]
	// Runner executes one claimed job; see distwork.Runner for the
	// contract.
	Runner = distwork.Runner[json.RawMessage]
)

// The job states. Pending jobs are claimable; claimed/running/paused jobs
// belong to a worker under a lease; done/failed/cancelled are terminal.
const (
	StatePending   = distwork.StatePending
	StateClaimed   = distwork.StateClaimed
	StateRunning   = distwork.StateRunning
	StatePaused    = distwork.StatePaused
	StateDone      = distwork.StateDone
	StateFailed    = distwork.StateFailed
	StateCancelled = distwork.StateCancelled
)

// The Runner sentinels; see distwork.Runner.
var (
	ErrInterrupted = distwork.ErrInterrupted
	ErrFinished    = distwork.ErrFinished
)

// Options tunes a Queue.
type Options struct {
	// Lease is how long a claim stays valid without a heartbeat
	// (default 30s).
	Lease time.Duration
	// Now overrides the clock (tests).
	Now func() time.Time
	// Metrics and Flight attach observability; see distwork.Options.
	Metrics *obs.Registry
	Flight  *obs.FlightRecorder
	// Deprecated: ignored; the journal is one file.
	JournalShards int
	// GroupCommit batches journal fsyncs into one flush per window (0 =
	// fsync every transition). See distwork.Options.GroupCommit.
	GroupCommit time.Duration
}

func (o Options) core() distwork.Options[json.RawMessage] {
	return distwork.Options[json.RawMessage]{
		Lease:        o.Lease,
		Now:          o.Now,
		Metrics:      o.Metrics,
		Flight:       o.Flight,
		GroupCommit:  o.GroupCommit,
		MetricPrefix: "elastisimd",
		IDPrefix:     "j",
	}
}

// Open creates a queue journaled at path, replaying any existing journal
// first; see distwork.Open.
func Open(path string, opts Options) (*Queue, error) { return distwork.Open(path, opts.core()) }

// NewPool creates a pool of n workers (n <= 0 selects GOMAXPROCS)
// running claimed jobs through run.
func NewPool(q *Queue, n int, run Runner) *Pool { return distwork.NewPool(q, n, run) }
