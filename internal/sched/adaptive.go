package sched

import (
	"slices"

	"repro/internal/job"
)

// Adaptive is the malleability-aware policy this reproduction evaluates
// against rigid baselines. It layers three mechanisms on top of an EASY
// start discipline:
//
//  1. shrink-to-admit: when pending jobs cannot start, running malleable
//     jobs currently at scheduling points are shrunk (largest first, never
//     below their minimum) to free enough nodes;
//  2. expand-to-fill: after starts, leftover free nodes are distributed
//     round-robin to malleable jobs at scheduling points (smallest
//     allocation first, up to each job's maximum) — dynamic
//     equipartitioning;
//  3. evolving arbitration: shrink requests are always granted; grow
//     requests are granted up to what the free pool allows.
type Adaptive struct{}

// Name implements Algorithm.
func (a *Adaptive) Name() string { return "adaptive" }

// Schedule implements Algorithm.
func (a *Adaptive) Schedule(inv *Invocation) []Decision {
	free := inv.FreeNodes

	// Malleable jobs we may resize right now (on the stack, for the usual
	// few).
	var resizableBuf [64]*JobView
	resizable := resizableBuf[:0]
	for _, v := range inv.Running {
		if v.AtSchedulingPoint && v.Type == job.Malleable {
			resizable = append(resizable, v)
		}
	}
	// Reclaimable capacity if we shrank everything to its minimum. A job
	// shrunk by a node failure can sit below its minimum: its floor is
	// where it is.
	reclaimable := 0
	floorOf := func(v *JobView) int { return min(v.MinNodes, v.Nodes) }
	for _, v := range resizable {
		reclaimable += v.Nodes - floorOf(v)
	}

	// Plan starts in FCFS order against free + reclaimable.
	type plannedStart struct {
		view *JobView
		n    int
	}
	var starts []plannedStart
	virtual := free + reclaimable
	blockedAt := -1
	for i, v := range inv.Pending {
		n := RequestedSize(v, virtual)
		if n == 0 {
			blockedAt = i
			break
		}
		starts = append(starts, plannedStart{v, n})
		virtual -= n
	}

	// How much shrinking do the planned starts actually require?
	needed := 0
	for _, s := range starts {
		needed += s.n
	}
	shrinkBy := max(needed-free, 0)

	var out []Decision
	// Issue shrinks, largest allocation first, until covered. The views
	// are read-only, so each planned size lives in a copy of its view that
	// stands in for the original in running and resizable for the rest of
	// the pass.
	running := inv.Running
	if shrinkBy > 0 {
		planned := map[*JobView]*JobView{}
		order := slices.Clone(resizable)
		slices.SortStableFunc(order, compareBy(func(a, b *JobView) bool { return a.Nodes > b.Nodes }))
		for _, v := range order {
			if shrinkBy == 0 {
				break
			}
			give := min(v.Nodes-floorOf(v), shrinkBy)
			if give <= 0 {
				continue
			}
			newSize := v.Nodes - give
			out = append(out, Resize(v.ID, newSize))
			c := *v
			c.Nodes = newSize
			planned[v] = &c
			shrinkBy -= give
			free += give
		}
		if len(planned) > 0 {
			running = withPlanned(running, planned)
			resizable = withPlanned(resizable, planned)
		}
	}

	// Issue starts.
	for _, s := range starts {
		out = append(out, Start(s.view.ID, s.n))
		free -= s.n
	}

	// EASY-style backfill of the remaining queue against remaining free
	// nodes (no further shrinking for backfilled jobs).
	if blockedAt >= 0 {
		out, free = backfill(out, inv.Now, inv.Pending[blockedAt+1:], running, free, inv.Pending[blockedAt].MinNodes, RequestedSize)
	}

	// Answer evolving requests before expanding, so grants have priority
	// over opportunistic growth.
	for _, v := range running {
		if v.EvolvingRequest == 0 {
			continue
		}
		req := v.EvolvingRequest
		cur := v.Nodes
		switch {
		case req <= cur:
			// Shrinking (or no-op) requests always granted.
			out = append(out, Decision{Kind: DecisionGrant, Job: v.ID, NumNodes: req})
		default:
			granted := min(cur+min(req-cur, free), v.MaxNodes)
			if granted <= cur {
				out = append(out, Decision{Kind: DecisionDeny, Job: v.ID})
				continue
			}
			out = append(out, Decision{Kind: DecisionGrant, Job: v.ID, NumNodes: granted})
			free -= granted - cur
		}
	}

	// Expand-to-fill: hand leftover nodes to resizable malleable jobs,
	// smallest first, one node at a time (equipartitioning). resizable[i]
	// grows by grows[i].
	if free > 0 && len(resizable) > 0 {
		var growsBuf [len(resizableBuf)]int
		var grows []int
		if len(resizable) <= len(growsBuf) {
			grows = growsBuf[:len(resizable)]
		} else {
			grows = make([]int, len(resizable))
		}
		for free > 0 {
			// Smallest current allocation with headroom.
			pick := -1
			for i, v := range resizable {
				if v.Nodes+grows[i] >= v.MaxNodes {
					continue
				}
				if pick < 0 || v.Nodes+grows[i] < resizable[pick].Nodes+grows[pick] {
					pick = i
				}
			}
			if pick < 0 {
				break
			}
			grows[pick]++
			free--
		}
		for i, v := range resizable {
			if grows[i] > 0 {
				out = append(out, Resize(v.ID, v.Nodes+grows[i]))
			}
		}
	}
	return out
}

// withPlanned returns a copy of views with every view that has a planned
// copy replaced by it.
func withPlanned(views []*JobView, planned map[*JobView]*JobView) []*JobView {
	out := make([]*JobView, len(views))
	for i, v := range views {
		if c, ok := planned[v]; ok {
			v = c
		}
		out[i] = v
	}
	return out
}
