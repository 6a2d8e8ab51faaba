package sched

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Conservative implements conservative backfilling (Mu'alem & Feitelson
// 2001): every queued job receives a reservation in submission order, and a
// job may start now only if doing so does not push back any reservation
// made before it. Compared to EASY it gives predictability at some
// utilization cost.
//
// A call costs O(P·B) for P pending jobs and B ≤ 1+R+2P breakpoints in the
// free-node profile (R running jobs): each job is placed by one forward
// sweep over the breakpoints and reserved by a walk over its own window.
// The sweep may skip candidate starts because a segment too full for the
// job rules out every start whose window covers it.
type Conservative struct{}

// Name implements Algorithm.
func (c *Conservative) Name() string { return "conservative" }

// Schedule implements Algorithm.
func (c *Conservative) Schedule(inv *Invocation) []Decision {
	prof := newProfile(inv)
	var out []Decision
	for _, v := range inv.Pending {
		need := v.MinNodes
		want := RequestedSize(v, inv.TotalNodes)
		if want == 0 {
			want = need
		}
		dur := v.WallTime
		start := prof.earliest(inv.Now, want, dur)
		if start == inv.Now {
			out = append(out, Start(v.ID, want))
		}
		// Reserve whether started or not, so later jobs cannot delay it.
		prof.reserve(start, dur, want)
	}
	return out
}

// profile tracks free nodes over future time as a step function, seeded
// from running jobs' expected ends.
type profile struct {
	times []float64 // strictly ascending; times[0] == now
	free  []int     // free[i] valid on [times[i], times[i+1])
}

// newProfile merges the running jobs' releases into one step per distinct
// release time. Releases at or before now fold into step 0, and a job
// without an estimate never releases within the profile horizon.
func newProfile(inv *Invocation) profile {
	type release struct {
		t float64
		n int
	}
	rels := make([]release, 0, len(inv.Running))
	for _, v := range inv.Running {
		if !math.IsInf(v.ExpectedEnd, 1) {
			rels = append(rels, release{v.ExpectedEnd, v.Nodes})
		}
	}
	slices.SortFunc(rels, func(a, b release) int { return cmp.Compare(a.t, b.t) })
	// Every reservation adds at most two breakpoints.
	size := 1 + len(inv.Running) + 2*len(inv.Pending)
	p := profile{times: make([]float64, 1, size), free: make([]int, 1, size)}
	p.times[0], p.free[0] = inv.Now, inv.FreeNodes
	for _, r := range rels {
		last := len(p.times) - 1
		if r.t <= p.times[last] {
			p.free[last] += r.n
			continue
		}
		p.times = append(p.times, r.t)
		p.free = append(p.free, p.free[last]+r.n)
	}
	return p
}

// addStep makes t a breakpoint and returns its index. A t before now is
// clamped to now: index 0.
func (p *profile) addStep(t float64) int {
	// sort.SearchFloat64s, not slices.BinarySearch: the latter's NaN-aware
	// float compare made a deep_queue-shaped pass ~20 % slower.
	i := sort.SearchFloat64s(p.times, t)
	if i == 0 || i < len(p.times) && p.times[i] == t {
		return i
	}
	p.times = slices.Insert(p.times, i, t)
	p.free = slices.Insert(p.free, i, p.free[i-1])
	return i
}

// earliest finds the first breakpoint >= now from which n nodes stay free
// for the whole duration, or +Inf. It sweeps the breakpoints once: a
// segment with fewer than n free nodes rules out the candidate and every
// later one whose window still covers it, so the sweep may skip straight
// to the breakpoint after that segment.
func (p *profile) earliest(now float64, n int, duration float64) float64 {
	c := sort.SearchFloat64s(p.times, now)
	for i := c; c < len(p.times); i++ {
		if i == len(p.times) || p.times[i] >= p.times[c]+duration {
			return p.times[c]
		}
		if p.free[i] < n {
			c = i + 1
		}
	}
	return math.Inf(1)
}

// reserve claims n nodes on [start, start+duration).
func (p *profile) reserve(start, duration float64, n int) {
	if math.IsInf(start, 1) {
		return
	}
	from := p.addStep(start)
	to := len(p.times)
	if end := start + duration; !math.IsInf(end, 1) {
		to = p.addStep(end)
	}
	for i := from; i < to; i++ {
		p.free[i] -= n
	}
}
