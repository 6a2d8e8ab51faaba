package sched

import (
	"math"
	"slices"
)

// FirstFit is list scheduling: every pending job that fits starts, in
// submission order, skipping any that do not fit. Maximizes instantaneous
// utilization but can starve wide jobs indefinitely — the classic baseline
// that motivates backfilling with reservations.
type FirstFit struct {
	Sizing SizePolicy
	SizeFn SizeFunc
}

// Name implements Algorithm.
func (f *FirstFit) Name() string { return "firstfit" }

// Schedule implements Algorithm. The decisions are allocated once, at the
// first start, for the most starts the invocation can hold: every start
// takes at least one free node.
func (f *FirstFit) Schedule(inv *Invocation) []Decision {
	var out []Decision
	free := inv.FreeNodes
	for _, v := range inv.Pending {
		n := pickSize(v, free, f.SizeFn, f.Sizing)
		if n == 0 {
			continue
		}
		if out == nil {
			out = make([]Decision, 0, min(len(inv.Pending), inv.FreeNodes))
		}
		out = append(out, Start(v.ID, n))
		free -= n
	}
	return out
}

// FairShare orders the queue by accumulated per-user resource usage
// (node-seconds, exponentially decayed) — users who consumed less go
// first — and then applies EASY-style backfilling within that order.
//
// Usage is integrated across invocations: because the engine invokes the
// algorithm on every allocation change (event-driven mode), summing
// nodes×Δt of the running jobs between invocations is exact. A FairShare
// value is therefore stateful and must not be shared between simulation
// runs.
type FairShare struct {
	Sizing SizePolicy
	SizeFn SizeFunc
	// HalfLife is the decay half-life of historical usage in seconds
	// (0 = no decay).
	HalfLife float64

	usage    map[string]float64
	prevLoad map[string]int // nodes per user at the previous invocation
	lastNow  float64
}

// Name implements Algorithm.
func (f *FairShare) Name() string { return "fairshare" }

// Usage returns a user's accumulated (decayed) node-seconds so far.
func (f *FairShare) Usage(user string) float64 { return f.usage[user] }

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
		if f.HalfLife > 0 {
			decay := math.Exp2(-dt / f.HalfLife)
			for u := range f.usage {
				f.usage[u] *= decay
			}
		}
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

	// EASY discipline over the fair order.
	var out []Decision
	free := inv.FreeNodes
	i := 0
	for ; i < len(order); i++ {
		n := pickSize(order[i], free, f.SizeFn, f.Sizing)
		if n == 0 {
			break
		}
		out = append(out, Start(order[i].ID, n))
		free -= n
	}
	if i >= len(order) {
		return out
	}
	out, _ = backfill(out, inv.Now, order[i+1:], inv.Running, free, order[i].MinNodes, f.SizeFn, f.Sizing)
	return out
}
