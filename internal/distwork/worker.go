package distwork

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInterrupted is returned by a Runner whose task was interrupted by
// shutdown (the run context was cancelled without a task-level cancel).
// The worker releases such tasks back to pending — journaled with the
// runner's partial-progress note — so a restarted process re-runs them.
var ErrInterrupted = errors.New("distwork: interrupted by shutdown")

// ErrFinished tells the worker the runner already moved the task to a
// terminal state (e.g. FinishCancelled) and no settlement is needed.
var ErrFinished = errors.New("distwork: task already settled by runner")

// A Runner executes one claimed task. It must return promptly when ctx
// is cancelled (shutdown). Contract:
//
//   - return (result, nil) for success → task done;
//   - return (partial, ErrInterrupted) — optionally wrapped — when ctx
//     stopped the run → task released back to pending;
//   - call s.FinishCancelled itself for an application-level cancel, and
//     return (_, ErrFinished) to tell the worker the task is already
//     settled;
//   - any other error → task failed.
//
// The Runner calls s.MarkRunning/MarkPaused as it executes. Renewing the
// lease is not its job: the worker that claimed the task (Work) does it.
type Runner[P any] func(ctx context.Context, s *Store[P], task Task[P]) (result string, err error)

// A Lessor hands out leased tasks: the four calls a worker makes, and
// the method set of httpapi.LeaseClient, so Work serves a local store and
// a remote coordinator alike. Batch calls report per-item outcomes
// positionally, plus an error when the lessor could not be reached. An
// empty claim says whether the work set is settled (exit) or merely busy.
type Lessor[P any] interface {
	ClaimBatch(ctx context.Context, worker string, max int) (tasks []Task[P], settled bool, lease time.Duration, err error)
	HeartbeatBatch(ctx context.Context, worker string, ids []string) ([]error, error)
	FinishBatch(ctx context.Context, worker string, items []FinishItem) ([]error, error)
	Release(ctx context.Context, id, worker, note string) error
}

// storeLessor is the in-process Lessor. Its claim blocks rather than come
// back empty and never reports settled: a daemon's queue is open-ended.
type storeLessor[P any] struct{ s *Store[P] }

func (l storeLessor[P]) ClaimBatch(ctx context.Context, worker string, max int) ([]Task[P], bool, time.Duration, error) {
	tasks, err := l.s.ClaimBatch(ctx, worker, max)
	return tasks, false, l.s.Lease(), err
}
func (l storeLessor[P]) HeartbeatBatch(_ context.Context, worker string, ids []string) ([]error, error) {
	return l.s.HeartbeatBatch(worker, ids), nil
}
func (l storeLessor[P]) FinishBatch(_ context.Context, worker string, items []FinishItem) ([]error, error) {
	return l.s.FinishBatch(worker, items), nil
}
func (l storeLessor[P]) Release(_ context.Context, id, worker, note string) error {
	return l.s.Release(id, worker, note)
}

// Work is the leased-work loop every worker runs, pool goroutine or
// sweep -connect process: claim up to batch tasks, run them in order,
// settle them in one FinishBatch, until the lessor reports the work set
// settled (nil) or ctx ends (its error). It returns how many it settled.
//
// One goroutine per worker renews the held batch every third of the
// lease — nothing per task, nothing between batches. run's error decides
// each task's outcome (see Runner); a failed task does not stop its
// batch-mates. When ctx ends mid-batch, computed results are still
// delivered, the interrupted task is released with the runner's error as
// its note, and unstarted ones are released at once, not left to expire.
// A per-item ErrNotOwner is tolerated (the lease lapsed; the newer claim
// wins); any other error from a claim or finish ends the worker.
func Work[P any](ctx context.Context, l Lessor[P], worker string, batch int, run func(context.Context, Task[P]) (string, error)) (done int, err error) {
	var (
		held     atomic.Pointer[[]Task[P]] // the batch under lease; nil between batches
		start    sync.Once
		renewing sync.WaitGroup
	)
	hbCtx, stopRenewing := context.WithCancel(ctx)
	defer func() { stopRenewing(); renewing.Wait() }()
	for ctx.Err() == nil {
		tasks, settled, lease, err := l.ClaimBatch(ctx, worker, batch)
		if err != nil {
			return done, err
		}
		if len(tasks) == 0 {
			if settled {
				return done, nil
			}
			select {
			case <-ctx.Done():
			case <-time.After(250 * time.Millisecond): // busy, not settled: held tasks may yet come back
			}
			continue
		}
		if lease <= 0 { // nothing can renew within it; the claims have lapsed already
			return done, fmt.Errorf("distwork: lessor granted a non-positive lease (%v) on %d tasks", lease, len(tasks))
		}
		held.Store(&tasks)
		start.Do(func() {
			renewing.Add(1)
			go func() {
				defer renewing.Done()
				renewLeases(hbCtx, l, worker, (lease+2)/3, &held)
			}()
		})

		var items []FinishItem
		var back []handBack
		for _, t := range tasks {
			if ctx.Err() != nil {
				back = append(back, handBack{t.ID, "worker " + worker + " interrupted; requeued"})
				continue
			}
			result, err := run(ctx, t)
			switch {
			case err == nil:
				items = append(items, FinishItem{ID: t.ID, Result: result})
			case errors.Is(err, ErrFinished): // the runner settled it itself
			case errors.Is(err, ErrInterrupted):
				back = append(back, handBack{t.ID, err.Error()})
			default:
				items = append(items, FinishItem{ID: t.ID, Result: result, Error: err.Error()})
			}
		}
		held.Store(nil)
		n, err := settle(ctx, l, worker, items, back)
		done += n
		if err != nil {
			return done, err
		}
	}
	return done, ctx.Err()
}

type handBack struct{ id, note string }

// settle delivers one batch's outcome: a FinishBatch for what ran to an
// end, then a best-effort Release for each task handed back (one that
// fails comes back anyway, when its lease lapses). It runs detached from
// ctx, so an interrupt cannot drop computed results, but bounded.
func settle[P any](ctx context.Context, l Lessor[P], worker string, items []FinishItem, back []handBack) (done int, err error) {
	ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
	defer cancel()
	if len(items) > 0 {
		errs, ferr := l.FinishBatch(ctx, worker, items)
		if ferr != nil {
			return 0, ferr
		}
		for i, ierr := range errs {
			if ierr == nil {
				done++
			} else if !errors.Is(ierr, ErrNotOwner) {
				err = fmt.Errorf("finishing task %s: %w", items[i].ID, ierr)
			}
		}
	}
	for _, b := range back {
		_ = l.Release(ctx, b.id, worker, b.note)
	}
	return done, err
}

// renewLeases is a worker's heartbeat goroutine: every tick it renews the
// batch held points at. It acts on no outcome: a lost lease shows up at
// settlement as ErrNotOwner, an unreachable lessor as the finish's error.
func renewLeases[P any](ctx context.Context, l Lessor[P], worker string, every time.Duration, held *atomic.Pointer[[]Task[P]]) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if tasks := held.Load(); tasks != nil {
			ids := make([]string, len(*tasks))
			for i, t := range *tasks {
				ids[i] = t.ID
			}
			_, _ = l.HeartbeatBatch(ctx, worker, ids)
		}
	}
}

// Pool runs claimed tasks on a fixed set of worker goroutines, sized to
// GOMAXPROCS by default, so hundreds of concurrent submissions share the
// machine fairly instead of each spawning its own goroutine. Each worker
// is Work over the store itself, one task per claim.
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
	run := func(ctx context.Context, task Task[P]) (string, error) {
		p.busy.Add(1)
		defer p.busy.Add(-1)
		return p.run(ctx, p.store, task)
	}
	for i := 0; i < p.workers; i++ {
		name := fmt.Sprintf("worker-%d", i)
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			// Ends with ctx or the store; nobody to report the reason to.
			_, _ = Work(ctx, storeLessor[P]{p.store}, name, 1, run)
		}()
	}
}

// Wait blocks until every worker exited (after Start's ctx is
// cancelled).
func (p *Pool[P]) Wait() { p.wg.Wait() }
