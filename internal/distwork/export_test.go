package distwork

// Single-task claim and settle, used by this package's tests and
// BenchmarkClaimFinish; production code claims and settles in batches.

// TryClaim claims the oldest pending task for worker, or reports none
// available. Expired leases are collected first, so a crashed worker's
// tasks become claimable here.
func (s *Store[P]) TryClaim(worker string) (Task[P], bool) {
	if s.begin() != nil {
		return Task[P]{}, false
	}
	defer s.mu.Unlock()
	now := s.opts.Now()
	s.expireLocked(now)
	return s.claimOneLocked(worker, now)
}

// Finish moves an owned task to a terminal state: done when runErr is
// nil, failed otherwise. result is an opaque outcome pointer stored on
// the task and survives journal recovery.
func (s *Store[P]) Finish(id, worker, result string, runErr error) error {
	state := StateDone
	errMsg := ""
	if runErr != nil {
		state = StateFailed
		errMsg = runErr.Error()
	}
	return s.finish(id, worker, state, result, errMsg)
}
