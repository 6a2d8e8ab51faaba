package sched

import (
	"math"
	"sort"
)

// refConservative is the original conservative backfilling implementation,
// kept verbatim as a test oracle: its profile re-runs fits from every
// breakpoint (O(P·B²) per call), which is slow but obviously correct.
// Conservative must return the same decisions and build the same profile.
type refConservative struct{}

func (c *refConservative) Schedule(inv *Invocation) []Decision {
	prof := refNewProfile(inv)
	var out []Decision
	for _, v := range inv.Pending {
		need := v.Job.MinNodes()
		want := refStartSize(v.Job, inv.TotalNodes, SizeRequested)
		if want == 0 {
			want = need
		}
		dur := wallTimeOrInf(v.Job)
		start := prof.earliest(inv.Now, want, dur)
		if start == inv.Now {
			out = append(out, Start(v.ID, want))
		}
		// Reserve whether started or not, so later jobs cannot delay it.
		prof.reserve(start, dur, want)
	}
	return out
}

type refProfile struct {
	times []float64 // ascending; times[0] == now
	free  []int     // free[i] valid on [times[i], times[i+1])
}

func refNewProfile(inv *Invocation) *refProfile {
	p := &refProfile{times: []float64{inv.Now}, free: []int{inv.FreeNodes}}
	// Collect release events from running jobs (known ends only; a job
	// without an estimate never releases within the profile horizon).
	type release struct {
		t float64
		n int
	}
	var rels []release
	for _, v := range inv.Running {
		if !math.IsInf(v.ExpectedEnd, 1) {
			rels = append(rels, release{v.ExpectedEnd, v.Nodes})
		}
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].t < rels[j].t })
	for _, r := range rels {
		p.addStep(r.t)
		p.apply(r.t, math.Inf(1), r.n)
	}
	return p
}

// addStep ensures t is a breakpoint.
func (p *refProfile) addStep(t float64) {
	i := sort.SearchFloat64s(p.times, t)
	if i < len(p.times) && p.times[i] == t {
		return
	}
	if i == 0 {
		// Before now: clamp to now.
		return
	}
	p.times = append(p.times, 0)
	p.free = append(p.free, 0)
	copy(p.times[i+1:], p.times[i:])
	copy(p.free[i+1:], p.free[i:])
	p.times[i] = t
	p.free[i] = p.free[i-1]
}

// apply adds delta free nodes on [from, to).
func (p *refProfile) apply(from, to float64, delta int) {
	for i := range p.times {
		if p.times[i] >= from && p.times[i] < to {
			p.free[i] += delta
		}
	}
}

// earliest finds the first time >= now at which n nodes stay free for the
// whole duration.
func (p *refProfile) earliest(now float64, n int, duration float64) float64 {
	for i := range p.times {
		start := p.times[i]
		if start < now {
			continue
		}
		if p.fits(start, duration, n) {
			return start
		}
	}
	// After the last breakpoint everything released is accounted for.
	last := p.times[len(p.times)-1]
	if p.fits(last, duration, n) {
		return last
	}
	return math.Inf(1)
}

// fits reports whether n nodes are free during [start, start+duration).
func (p *refProfile) fits(start, duration float64, n int) bool {
	end := start + duration
	for i := range p.times {
		segStart := p.times[i]
		segEnd := math.Inf(1)
		if i+1 < len(p.times) {
			segEnd = p.times[i+1]
		}
		if segEnd <= start {
			continue
		}
		if segStart >= end {
			break
		}
		if p.free[i] < n {
			return false
		}
	}
	return true
}

// reserve claims n nodes on [start, start+duration).
func (p *refProfile) reserve(start, duration float64, n int) {
	if math.IsInf(start, 1) {
		return
	}
	end := start + duration
	p.addStep(start)
	if !math.IsInf(end, 1) {
		p.addStep(end)
	}
	p.apply(start, end, -n)
}
