package sched

import "math"

// EASY implements EASY backfilling (Lifka 1995): the head job gets a
// reservation at the earliest time enough nodes free up, and later jobs may
// jump ahead if they fit now without delaying that reservation — either
// they finish before the reservation ("before shadow time") or they use
// only nodes the reservation does not need ("extra nodes").
type EASY struct {
	Sizing SizePolicy
	// SizeFn overrides Sizing when set (e.g. EfficiencySizer).
	SizeFn SizeFunc
}

// Name implements Algorithm.
func (e *EASY) Name() string { return "easy" }

// Schedule implements Algorithm.
func (e *EASY) Schedule(inv *Invocation) []Decision {
	var out []Decision
	free := inv.FreeNodes

	// Greedy FCFS prefix.
	i := 0
	for ; i < len(inv.Pending); i++ {
		v := inv.Pending[i]
		n := pickSize(v, free, e.SizeFn, e.Sizing)
		if n == 0 {
			break
		}
		out = append(out, Start(v.ID, n))
		free -= n
	}
	if i >= len(inv.Pending) {
		return out
	}

	// Head job blocks: the rest backfills behind its reservation of its
	// rigid request or minimum acceptable size.
	need := min(inv.Pending[i].Job.MinNodes(), inv.TotalNodes)
	out, _ = backfill(out, inv.Now, inv.Pending[i+1:], inv.Running, free, need, e.SizeFn, e.Sizing)
	return out
}

// backfill is the EASY pass over the jobs queued behind a blocked head
// that reserves need nodes: a candidate starts if it fits the free nodes
// and either ends by the head's shadow time or fits the extra nodes the
// reservation leaves. It returns out with the starts appended and the
// nodes left free. The shadow time is computed only once a candidate
// fits, and the pass ends when no node is free: no valid job starts on
// zero nodes.
func backfill(out []Decision, now float64, cands, running []*JobView, free, need int, fn SizeFunc, policy SizePolicy) ([]Decision, int) {
	var shadow float64
	extra, known := 0, false
	for _, v := range cands {
		if free <= 0 {
			break
		}
		n := pickSize(v, free, fn, policy)
		if n == 0 {
			continue
		}
		if !known {
			shadow, extra = shadowTime(now, running, free, need)
			known = true
		}
		endsBeforeShadow := now+v.WallTimeOrInf() <= shadow
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

// shadowTime computes when `need` nodes will be free at time now given the
// running jobs' expected ends, plus how many nodes remain free at that
// moment beyond the reservation (the "extra" nodes available for backfill
// past the shadow time). Jobs without walltime estimates never release
// their nodes for this computation. Releases come off a heap of positions
// in running keyed by (ExpectedEnd, position), the order a stable sort by
// ExpectedEnd gives, and only until the reservation is covered.
func shadowTime(now float64, running []*JobView, free, need int) (shadow float64, extra int) {
	if need <= free {
		return now, free - need
	}
	h := make([]int32, 0, len(running))
	avail := free
	for i, v := range running {
		if !math.IsInf(v.ExpectedEnd, 1) {
			h = append(h, int32(i))
			avail += v.Nodes
		}
	}
	if avail < need {
		return math.Inf(1), avail - need // never: backfill gated only by "extra"
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, running, i)
	}
	avail = free
	for {
		v := running[h[0]]
		if avail += v.Nodes; avail >= need {
			return v.ExpectedEnd, avail - need
		}
		h[0] = h[len(h)-1]
		h = h[:len(h)-1]
		siftDown(h, running, 0)
	}
}

// siftDown moves h[i] down to its place in the min-heap h of positions in
// running, keyed by (ExpectedEnd, position).
func siftDown(h []int32, running []*JobView, i int) {
	less := func(a, b int32) bool {
		ea, eb := running[a].ExpectedEnd, running[b].ExpectedEnd
		return ea < eb || ea == eb && a < b
	}
	for c := 2*i + 1; c < len(h); i, c = c, 2*c+1 {
		if c+1 < len(h) && less(h[c+1], h[c]) {
			c++
		}
		if !less(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
	}
}
