package distwork

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ErrInterrupted is returned by a Runner whose task was interrupted by
// shutdown (the run context was cancelled without a task-level cancel).
// The pool releases such tasks back to pending — journaled with the
// runner's partial-progress note — so a restarted process re-runs them.
var ErrInterrupted = errors.New("distwork: interrupted by shutdown")

// ErrFinished tells the pool the runner already moved the task to a
// terminal state (e.g. FinishCancelled) and no settlement is needed.
var ErrFinished = errors.New("distwork: task already settled by runner")

// A Runner executes one claimed task. It must return promptly when ctx
// is cancelled (shutdown). Contract:
//
//   - return (result, nil) for success → task done;
//   - return (partial, ErrInterrupted) — optionally wrapped — when ctx
//     stopped the run → task released back to pending;
//   - call s.FinishCancelled itself for an application-level cancel, and
//     return (_, ErrFinished) to tell the pool the task is already
//     settled;
//   - any other error → task failed.
//
// The Runner is responsible for calling s.MarkRunning/MarkPaused and
// s.Heartbeat as it executes; the pool only claims and settles.
type Runner[P any] func(ctx context.Context, s *Store[P], task Task[P]) (result string, err error)

// Pool runs claimed tasks on a fixed set of worker goroutines, sized to
// GOMAXPROCS by default, so hundreds of concurrent submissions share the
// machine fairly instead of each spawning its own goroutine.
type Pool[P any] struct {
	store   *Store[P]
	run     Runner[P]
	workers int
	busy    atomic.Int64 // workers currently executing a claimed task

	wg sync.WaitGroup
}

// NewPool creates a pool of n workers (n <= 0 selects GOMAXPROCS). When
// the store carries a metrics registry, the pool exports its size and a
// live occupancy gauge (<prefix>_workers, <prefix>_workers_busy).
func NewPool[P any](s *Store[P], n int, run Runner[P]) *Pool[P] {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool[P]{store: s, run: run, workers: n}
	if reg := s.opts.Metrics; reg != nil {
		reg.Help(fmt.Sprintf("%s_workers_busy", s.opts.MetricPrefix),
			"pool workers currently executing a claimed task")
		reg.Gauge(fmt.Sprintf("%s_workers", s.opts.MetricPrefix), nil).Set(float64(n))
		reg.Gauge(fmt.Sprintf("%s_workers_busy", s.opts.MetricPrefix),
			func() float64 { return float64(p.busy.Load()) })
	}
	return p
}

// Workers reports the pool size.
func (p *Pool[P]) Workers() int { return p.workers }

// Start launches the workers. They claim and execute tasks until ctx is
// cancelled, then settle their current task (release-to-pending on
// interruption) and exit. Use Wait to block until all workers drained.
func (p *Pool[P]) Start(ctx context.Context) {
	for i := 0; i < p.workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			p.work(ctx, name)
		}()
	}
}

// Wait blocks until every worker exited (after Start's ctx is
// cancelled).
func (p *Pool[P]) Wait() { p.wg.Wait() }

func (p *Pool[P]) work(ctx context.Context, name string) {
	for {
		task, err := p.store.Claim(ctx, name)
		if err != nil {
			return // ctx done or store closed
		}
		p.busy.Add(1)
		result, runErr := p.run(ctx, p.store, task)
		p.busy.Add(-1)
		Settle(p.store, task.ID, name, result, runErr)
	}
}

// Settle applies the Runner error contract to a finished run: nil →
// done, ErrFinished → already settled by the runner, ErrInterrupted →
// released back to pending with the runner's note, anything else →
// failed. Exported so out-of-process workers (the sweep -connect loop)
// settle claims under the same contract as the in-process pool.
//
// Settlement errors are tolerated: the only way these transitions fail
// is the benign race where the task's lease expired mid-run and a newer
// claim owns it — then the newer claim wins.
func Settle[P any](s *Store[P], id, worker, result string, runErr error) {
	switch {
	case runErr == nil:
		_ = s.Finish(id, worker, result, nil)
	case errors.Is(runErr, ErrFinished):
		// Runner already settled the task (e.g. cancelled).
	case errors.Is(runErr, ErrInterrupted):
		note := "interrupted by shutdown; requeued"
		if msg := runErr.Error(); msg != ErrInterrupted.Error() {
			note = msg
		}
		_ = s.Release(id, worker, note)
	default:
		_ = s.Finish(id, worker, result, runErr)
	}
}
