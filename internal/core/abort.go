package core

// AbortReason reports why a bounded run returned control. It is the
// typed answer to "did the simulation finish, and if not, what stopped
// it?" — callers branch on it instead of parsing errors.
type AbortReason int

const (
	// AbortDrained means the event queue is empty: the simulation ran to
	// natural completion (or deadlocked with jobs outstanding, which
	// Finish reports as an error).
	AbortDrained AbortReason = iota
	// AbortCancelled means the context was cancelled between slices.
	AbortCancelled
	// AbortDeadline means the context's deadline expired between slices.
	AbortDeadline
	// AbortHorizon means the run hit a virtual-time bound — Options.
	// Horizon or the RunUntil target — with events still queued.
	AbortHorizon
)

func (r AbortReason) String() string {
	switch r {
	case AbortDrained:
		return "drained"
	case AbortCancelled:
		return "cancelled"
	case AbortDeadline:
		return "deadline"
	case AbortHorizon:
		return "horizon"
	default:
		return "unknown"
	}
}
