package sched

import "slices"

// FCFS is strict first-come-first-served: jobs start in submission order;
// if the head of the queue does not fit, nothing behind it starts either.
type FCFS struct{}

// Name implements Algorithm.
func (f *FCFS) Name() string { return "fcfs" }

// Schedule implements Algorithm.
func (f *FCFS) Schedule(inv *Invocation) []Decision {
	out, _, _ := startInOrder(inv.Pending, inv.FreeNodes, RequestedSize)
	return out
}

// SJF starts jobs shortest-first by walltime estimate; jobs without an
// estimate sort last. Ties fall back to submission order. Like FCFS it
// does not reserve: if the shortest job does not fit, nothing starts.
type SJF struct{}

// Name implements Algorithm.
func (s *SJF) Name() string { return "sjf" }

// Schedule implements Algorithm.
func (s *SJF) Schedule(inv *Invocation) []Decision {
	order := slices.Clone(inv.Pending)
	slices.SortStableFunc(order, compareBy(func(a, b *JobView) bool {
		return a.WallTime < b.WallTime
	}))
	out, _, _ := startInOrder(order, inv.FreeNodes, RequestedSize)
	return out
}

// startInOrder starts the jobs of order one after another at the sizes
// size picks, until one does not fit the free nodes. It returns the
// starts, the index in order of the job that did not fit (len(order) when
// all did) and the nodes left free.
func startInOrder(order []*JobView, free int, size SizeFunc) (out []Decision, blocked, left int) {
	for i, v := range order {
		n := size(v, free)
		if n == 0 {
			return out, i, free
		}
		out = append(out, Start(v.ID, n))
		free -= n
	}
	return out, len(order), free
}

// compareBy turns less into the three-way comparator the slices sorts
// take. less must be a strict weak order; the keys the algorithms sort by
// are never NaN (job.Validate rejects NaN times), so < on them is one. The
// comparator asks less both ways instead of using cmp.Compare, which orders
// a NaN differently from <.
func compareBy(less func(a, b *JobView) bool) func(a, b *JobView) int {
	return func(a, b *JobView) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		}
		return 0
	}
}
