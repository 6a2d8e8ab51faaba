package sched

import "math"

// EASY implements EASY backfilling (Lifka 1995): the head job gets a
// reservation at the earliest time enough nodes free up, and later jobs may
// jump ahead if they fit now without delaying that reservation — either
// they finish before the reservation ("before shadow time") or they use
// only nodes the reservation does not need ("extra nodes").
type EASY struct {
	// Size picks start sizes (nil: RequestedSize).
	Size SizeFunc
}

// Name implements Algorithm.
func (e *EASY) Name() string { return "easy" }

// Schedule implements Algorithm.
func (e *EASY) Schedule(inv *Invocation) []Decision {
	size := e.Size
	if size == nil {
		size = RequestedSize
	}
	return easy(inv, inv.Pending, size)
}

// easy is the EASY discipline over order: jobs start in order while they
// fit, and the jobs behind the first that does not backfill behind its
// reservation of its rigid request or minimum acceptable size (at most
// the machine).
func easy(inv *Invocation, order []*JobView, size SizeFunc) []Decision {
	out, i, free := startInOrder(order, inv.FreeNodes, size)
	if i == len(order) {
		return out
	}
	need := min(order[i].MinNodes, inv.TotalNodes)
	out, _ = backfill(out, inv.Now, order[i+1:], inv.Running, free, need, size)
	return out
}

// backfill is the EASY pass over the jobs queued behind a blocked head
// that reserves need nodes: a candidate starts if it fits the free nodes
// and either ends by the head's shadow time or fits the extra nodes the
// reservation leaves. It returns out with the starts appended and the
// nodes left free. The shadow time is computed only once a candidate
// fits, and the pass ends when no node is free: no valid job starts on
// zero nodes.
//
// Most of a deep queue cannot start, so a candidate is first tested on its
// minimum alone, without sizing it: one whose minimum exceeds free, or,
// once the shadow time is known, exceeds extra while it would not end by
// the shadow time, is skipped. The SizeFunc contract (a size within the
// job's bounds and at most free, or 0, depending only on the view and
// free) makes both skips the decision sizing it would have reached.
func backfill(out []Decision, now float64, cands, running []*JobView, free, need int, size SizeFunc) ([]Decision, int) {
	var shadow float64
	extra, known := 0, false
	for _, v := range cands {
		if free <= 0 {
			break
		}
		if v.MinNodes > free || known && v.MinNodes > extra && now+v.WallTime > shadow {
			continue
		}
		n := size(v, free)
		if n == 0 {
			continue
		}
		if !known {
			shadow, extra = shadowTime(now, running, free, need)
			known = true
		}
		endsBeforeShadow := now+v.WallTime <= shadow
		fitsExtra := n <= extra
		if !endsBeforeShadow && !fitsExtra {
			continue
		}
		out = append(out, Start(v.ID, n))
		free -= n
		if fitsExtra && !endsBeforeShadow {
			extra -= n
		}
	}
	return out, free
}

// release is one running job's entry in shadowTime's heap: the key
// (end, pos) and the nodes the job frees at end.
type release struct {
	end   float64
	pos   int32
	nodes int32
}

// shadowReleases is how many releases shadowTime keeps on the stack; a
// longer running list gets one heap buffer of exactly its size.
const shadowReleases = 512

// shadowTime computes when `need` nodes will be free at time now given the
// running jobs' expected ends, plus how many nodes remain free at that
// moment beyond the reservation (the "extra" nodes available for backfill
// past the shadow time). Jobs without walltime estimates never release
// their nodes for this computation. Releases come off a heap keyed by
// (ExpectedEnd, position in running), the order a stable sort by
// ExpectedEnd gives, and only until the reservation is covered.
func shadowTime(now float64, running []*JobView, free, need int) (shadow float64, extra int) {
	if need <= free {
		return now, free - need
	}
	count, avail := 0, free
	for _, v := range running {
		if !math.IsInf(v.ExpectedEnd, 1) {
			count++
			avail += v.Nodes
		}
	}
	if avail < need {
		// The head never starts by the releases in sight: every candidate
		// that fits free ends by +Inf, so only free gates backfill.
		return math.Inf(1), avail - need
	}
	var buf [shadowReleases]release
	h := buf[:0]
	if count > len(buf) {
		h = make([]release, 0, count)
	}
	for i, v := range running {
		if !math.IsInf(v.ExpectedEnd, 1) {
			h = append(h, release{v.ExpectedEnd, int32(i), int32(v.Nodes)})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	avail = free
	for {
		r := h[0]
		if avail += int(r.nodes); avail >= need {
			return r.end, avail - need
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, 0)
	}
}

// siftDown moves h[i] down to its place in the min-heap h of releases,
// keyed by (end, pos).
func siftDown(h []release, i int) {
	less := func(a, b *release) bool {
		return a.end < b.end || a.end == b.end && a.pos < b.pos
	}
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && less(&h[c+1], &h[c]) {
			c++
		}
		if !less(&h[c], &h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}
