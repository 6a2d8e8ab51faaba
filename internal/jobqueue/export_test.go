package jobqueue

import "repro/internal/distwork"

// New creates a memory-only queue (no journal).
func New(opts Options) *Queue { return distwork.New(opts.core()) }

// tryClaim claims the oldest pending job for worker, or reports none.
func tryClaim(q *Queue, worker string) (Job, bool) {
	js := q.TryClaimBatch(worker, 1)
	if len(js) == 0 {
		return Job{}, false
	}
	return js[0], true
}

// finish settles an owned job: done when runErr is nil, failed otherwise.
func finish(q *Queue, id, worker, result string, runErr error) error {
	it := distwork.FinishItem{ID: id, Result: result}
	if runErr != nil {
		it.Error = runErr.Error()
	}
	return q.FinishBatch(worker, []distwork.FinishItem{it})[0]
}
