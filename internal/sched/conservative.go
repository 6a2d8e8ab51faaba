package sched

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"repro/internal/job"
)

// Conservative implements conservative backfilling (Mu'alem & Feitelson
// 2001): every queued job receives a reservation in submission order, and a
// job may start now only if doing so does not push back any reservation
// made before it. Compared to EASY it gives predictability at some
// utilization cost.
//
// A full pass places each job by one forward sweep over the breakpoints of
// the free-node profile, which reserves the job's window from the indices
// it stopped at (see place). The sweep may skip candidate starts because a
// segment too full for the job rules out every start whose window covers
// it. It also begins no earlier than the reservation of the most recent
// queued job no wider and no longer than this one (see sweepFrom). That
// is exact: reservations only take nodes, so this job's profile has at
// most that job's free nodes at every time, and a window that fits this
// job fits that job too, from the breakpoint at or before the window's
// start. That job's reservation is its first fit, so nothing earlier fits
// this one. The pass costs O(P·(B+P)) for P pending jobs and B ≤ 1+R+2P
// breakpoints (R running jobs): a sweep visits each breakpoint at most
// once, and the walk back to the bound each queued job at most once. On
// deep_queue the bound cuts the breakpoints swept before a job's start
// from 123.5 to 22.7 per job, against 16.2 in its window.
//
// A Conservative value keeps its last pass between calls, as copies: the
// final profile, the releases and free nodes the snapshot shows once the
// pass's starts are applied, and every pending job's reservation. A call
// whose snapshot is that pass advanced by its own starts, with new jobs at
// the end of the queue, re-bases the kept profile at Now and reserves only
// the new jobs (see extends): O(B + R log R + P) for a call that adds one
// job. Every other call is a full pass. The value serves one run at a
// time, and drops its buffers whenever the queue is empty.
type Conservative struct {
	prof  profile       // the last pass's profile, every reservation made
	now   float64       // the last pass's Now
	free  int           // the last pass's FreeNodes less its starts
	rels  []nodeRelease // the last pass's releases plus its starts', sorted
	queue []reservation // the last pass's pending jobs, in queue order
	cur   []nodeRelease // this call's releases, sorted (scratch)
	out   []Decision    // the decisions buffer, reused by every call
}

// nodeRelease is the n nodes a running job frees at its expected end t.
type nodeRelease struct {
	t float64
	n int
}

// compareReleases orders releases by time, then size, so that two equal
// sets of releases sort to equal slices.
func compareReleases(a, b nodeRelease) int {
	if c := cmp.Compare(a.t, b.t); c != 0 {
		return c
	}
	return cmp.Compare(a.n, b.n)
}

// reservation is one pending job as a pass saw it and placed it.
type reservation struct {
	id    job.ID
	nodes int
	wall  float64
	start float64 // the pass's Now if it started the job; +Inf if it never fits
}

// Name implements Algorithm.
func (c *Conservative) Name() string { return "conservative" }

// Schedule implements Algorithm. The returned slice is valid until the
// next call.
func (c *Conservative) Schedule(inv *Invocation) []Decision {
	if len(inv.Pending) == 0 {
		*c = Conservative{}
		return nil
	}
	kept := c.extends(inv)
	if kept < 0 {
		c.prof.reset(inv.Now, inv.FreeNodes, c.cur, 1+len(inv.Running)+2*len(inv.Pending))
		c.queue = c.queue[:0]
		kept = 0
	} else {
		// The jobs the last pass started now run: their reservations
		// are releases, and their entries leave the queue.
		c.prof.rebase(inv.Now)
		q := c.queue[:0]
		for _, r := range c.queue {
			if r.start != c.now {
				q = append(q, r)
			}
		}
		c.queue = q
	}
	c.now, c.free = inv.Now, inv.FreeNodes
	out := c.out[:0]
	for _, v := range inv.Pending[kept:] {
		want := reservedSize(v, inv.TotalNodes)
		dur := v.WallTime
		// Reserve whether started or not, so later jobs cannot delay it.
		start := c.prof.place(sweepFrom(c.queue, inv.Now, want, dur), want, dur)
		if start == inv.Now {
			out = append(out, Start(v.ID, want))
			c.free -= want
			if !math.IsInf(dur, 1) {
				c.cur = append(c.cur, nodeRelease{inv.Now + dur, want})
			}
		}
		c.queue = append(c.queue, reservation{v.ID, want, dur, start})
	}
	slices.SortFunc(c.cur, compareReleases)
	c.rels, c.cur = c.cur, c.rels
	c.out = out
	return out
}

// sweepFrom is where the sweep for a job of n nodes and duration dur may
// begin, given the reservations queue made before it in the pass: the
// start of the most recent one no wider and no longer, or now. Kept
// reservations count too, since each equals the one a fresh pass makes.
// A start of +Inf means the job never fits either.
func sweepFrom(queue []reservation, now float64, n int, dur float64) float64 {
	for i := len(queue) - 1; i >= 0; i-- {
		if r := queue[i]; r.nodes <= n && r.wall <= dur {
			return max(now, r.start)
		}
	}
	return now
}

// reservedSize is the size Conservative reserves for v: its requested
// size, or its minimum when the request does not fit the machine.
func reservedSize(v *JobView, total int) int {
	if want := RequestedSize(v, total); want > 0 {
		return want
	}
	return v.MinNodes
}

// extends loads inv's releases into c.cur, then reports how many leading
// jobs of inv.Pending the kept pass already reserved, or -1 when inv is
// not that pass advanced by its own starts. Reading only the snapshot, it
// checks that
//   - the kept pass exists and Now has not gone back;
//   - FreeNodes and the releases are the kept pass's after its starts, so
//     a full pass would build the kept profile with the started jobs'
//     reservations in it (and the breakpoints up to Now folded);
//   - the queue is the kept pass's unstarted jobs, in order and with the
//     same ID, size and walltime, followed by new jobs;
//   - no unstarted job's reservation starts at or before Now.
//
// Under these a full pass gives every kept job its kept start: the jobs
// started after it in the kept pass only take nodes from it, so it fits
// no earlier; and they fitted beside it at the kept pass's Now, so it
// still fits where it was. One more check keeps this true in float
// arithmetic: a kept walltime must not vanish next to any profile time,
// or a later Now can open a zero-length window the kept pass never had.
func (c *Conservative) extends(inv *Invocation) int {
	c.cur = appendReleases(c.cur[:0], inv.Running)
	if len(c.queue) == 0 || inv.Now < c.now || inv.FreeNodes != c.free || !slices.Equal(c.cur, c.rels) {
		return -1
	}
	span := max(math.Abs(inv.Now), math.Abs(c.prof.times[len(c.prof.times)-1]))
	ulp := math.Nextafter(span, math.Inf(1)) - span
	k := 0
	for _, r := range c.queue {
		if r.start == c.now {
			continue // started: among the releases now, or without one
		}
		if k == len(inv.Pending) {
			return -1
		}
		v := inv.Pending[k]
		if v.ID != r.id || v.WallTime != r.wall || reservedSize(v, inv.TotalNodes) != r.nodes ||
			r.start <= inv.Now || r.wall < ulp {
			return -1
		}
		k++
	}
	return k
}

// appendReleases appends the running jobs' releases to rels and sorts
// them. A job without an estimate never releases within the profile
// horizon and is left out.
func appendReleases(rels []nodeRelease, running []*JobView) []nodeRelease {
	for _, v := range running {
		if !math.IsInf(v.ExpectedEnd, 1) {
			rels = append(rels, nodeRelease{v.ExpectedEnd, v.Nodes})
		}
	}
	slices.SortFunc(rels, compareReleases)
	return rels
}

// profile tracks free nodes over future time as a step function, seeded
// from running jobs' expected ends.
type profile struct {
	times []float64 // strictly ascending; times[0] == now
	free  []int     // free[i] valid on [times[i], times[i+1])
}

// reset rebuilds p in its own buffers, with room for size breakpoints:
// free nodes at now, plus one step per distinct time of the sorted
// releases. Releases at or before now fold into step 0.
func (p *profile) reset(now float64, free int, rels []nodeRelease, size int) {
	p.times = append(slices.Grow(p.times[:0], size), now)
	p.free = append(slices.Grow(p.free[:0], size), free)
	for _, r := range rels {
		last := len(p.times) - 1
		if r.t <= p.times[last] {
			p.free[last] += r.n
			continue
		}
		p.times = append(p.times, r.t)
		p.free = append(p.free, p.free[last]+r.n)
	}
}

// rebase moves step 0 to now, no earlier than times[0]: the breakpoints
// at or before now fold into it, as reset folds releases at or before now.
func (p *profile) rebase(now float64) {
	i := sort.SearchFloat64s(p.times, now)
	if i == len(p.times) || p.times[i] > now {
		i--
	}
	p.times = slices.Delete(p.times, 0, i)
	p.free = slices.Delete(p.free, 0, i)
	p.times[0] = now
}

// place finds the first breakpoint >= lb from which n nodes stay free for
// the whole duration, claims n nodes on [start, start+duration) and returns
// start; or returns +Inf and claims nothing. It sweeps the breakpoints
// once: a segment with fewer than n free nodes rules out the candidate and
// every later one whose window still covers it, so the sweep may skip
// straight to the breakpoint after that segment. The sweep stops at the
// first breakpoint at or past the window's end, which is where that end
// goes, so claiming needs no search.
func (p *profile) place(lb float64, n int, duration float64) float64 {
	// sort.SearchFloat64s, not slices.BinarySearch: the latter's NaN-aware
	// float compare made a deep_queue-shaped pass ~20 % slower.
	c := sort.SearchFloat64s(p.times, lb)
	i := c
	for ; c < len(p.times); i++ {
		if i == len(p.times) || p.times[i] >= p.times[c]+duration {
			break
		}
		if p.free[i] < n {
			c = i + 1
		}
	}
	if c == len(p.times) {
		return math.Inf(1)
	}
	start := p.times[c]
	end := start + duration
	if end <= start {
		// The window claims nothing, but its end still becomes a
		// breakpoint, which may lie before the start.
		i = sort.SearchFloat64s(p.times, end)
	}
	to := len(p.times)
	if !math.IsInf(end, 1) {
		to = p.split(i, end)
	}
	for ; c < to; c++ {
		p.free[c] -= n
	}
	return start
}

// split makes t a breakpoint at index i, the first index with
// times[i] >= t, and returns i. A t before now (i == 0) is clamped to now.
func (p *profile) split(i int, t float64) int {
	if i == 0 || i < len(p.times) && p.times[i] == t {
		return i
	}
	p.times = slices.Insert(p.times, i, t)
	p.free = slices.Insert(p.free, i, p.free[i-1])
	return i
}
