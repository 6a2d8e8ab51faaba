package sched

import "slices"

// FirstFit is list scheduling: every pending job that fits starts, in
// submission order, skipping any that do not fit. Maximizes instantaneous
// utilization but can starve wide jobs indefinitely — the classic baseline
// that motivates backfilling with reservations. A FirstFit value keeps
// its decisions buffer between calls, so it must not be shared between
// concurrent runs.
type FirstFit struct {
	out []Decision // the decisions buffer, reused by every invocation
}

// Name implements Algorithm.
func (f *FirstFit) Name() string { return "firstfit" }

// Schedule implements Algorithm. The returned slice is valid until the
// next call.
func (f *FirstFit) Schedule(inv *Invocation) []Decision {
	out := f.out[:0]
	free := inv.FreeNodes
	for _, v := range inv.Pending {
		if free <= 0 {
			break // no valid job starts on zero nodes
		}
		if n := RequestedSize(v, free); n > 0 {
			out = append(out, Start(v.ID, n))
			free -= n
		}
	}
	f.out = out
	return out
}

// FairShare orders the queue by accumulated per-user resource usage
// (node-seconds) — users who consumed less go first — and then applies
// EASY-style backfilling within that order.
//
// Usage is integrated across invocations: because the engine invokes the
// algorithm on every allocation change (event-driven mode), summing
// nodes×Δt of the running jobs between invocations is exact. A FairShare
// value is therefore stateful and must not be shared between simulation
// runs.
type FairShare struct {
	usage    map[string]float64
	prevLoad map[string]int // nodes per user at the previous invocation
	lastNow  float64
}

// Name implements Algorithm.
func (f *FairShare) Name() string { return "fairshare" }

func userOf(v *JobView) string {
	if v.Job.User == "" {
		return "(nobody)"
	}
	return v.Job.User
}

// Schedule implements Algorithm.
func (f *FairShare) Schedule(inv *Invocation) []Decision {
	if f.usage == nil {
		f.usage = map[string]float64{}
		f.prevLoad = map[string]int{}
		f.lastNow = inv.Now
	}
	// Integrate usage since the last invocation using the allocation that
	// held during that interval (the previous invocation's running set —
	// allocations cannot change without an invocation in event-driven
	// mode, so this is exact).
	dt := inv.Now - f.lastNow
	if dt > 0 {
		for u, nodes := range f.prevLoad {
			f.usage[u] += float64(nodes) * dt
		}
		f.lastNow = inv.Now
	}
	clear(f.prevLoad)
	for _, v := range inv.Running {
		f.prevLoad[userOf(v)] += v.Nodes
	}

	// Order pending jobs by user usage, stable within a user.
	order := slices.Clone(inv.Pending)
	slices.SortStableFunc(order, compareBy(func(a, b *JobView) bool {
		return f.usage[userOf(a)] < f.usage[userOf(b)]
	}))

	return easy(inv, order, RequestedSize)
}
