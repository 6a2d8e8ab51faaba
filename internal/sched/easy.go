package sched

import (
	"math"
	"slices"
)

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

	// Head job blocks: compute its shadow time and the extra nodes.
	head := inv.Pending[i]
	headNeed := reservationSize(head)
	if headNeed > inv.TotalNodes {
		headNeed = inv.TotalNodes
	}
	shadow, extra := shadowTime(inv.Now, inv.Running, free, headNeed)

	// Backfill the remainder.
	for _, v := range inv.Pending[i+1:] {
		n := pickSize(v, free, e.SizeFn, e.Sizing)
		if n == 0 {
			continue
		}
		endsBeforeShadow := inv.Now+v.WallTimeOrInf() <= shadow
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
	return out
}

// reservationSize is the node count reserved for a blocked job: its rigid
// request or its minimum acceptable size.
func reservationSize(v *JobView) int {
	return v.Job.MinNodes()
}

// shadowTime computes when `need` nodes will be free at time now given the
// running jobs' expected ends, plus how many nodes remain free at that
// moment beyond the reservation (the "extra" nodes available for backfill
// past the shadow time). Jobs without walltime estimates never release
// their nodes for this computation.
func shadowTime(now float64, running []*JobView, free, need int) (shadow float64, extra int) {
	if need <= free {
		return now, free - need
	}
	// Sort running jobs by expected end and accumulate releases.
	ends := slices.Clone(running)
	slices.SortStableFunc(ends, compareBy(func(a, b *JobView) bool { return a.ExpectedEnd < b.ExpectedEnd }))
	avail := free
	for _, v := range ends {
		if math.IsInf(v.ExpectedEnd, 1) {
			break
		}
		avail += v.Nodes
		if avail >= need {
			return v.ExpectedEnd, avail - need
		}
	}
	return math.Inf(1), avail - need // never: backfill gated only by "extra"
}
