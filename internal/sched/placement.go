package sched

import (
	"cmp"
	"slices"
)

// LocalityPack picks n nodes from the free list minimizing the number of
// leaf-switch groups the allocation spans (tree topologies): it fills the
// fullest groups first, breaking ties by lower group index. With
// groupSize <= 0 it degrades to lowest-numbered-first, the engine's own
// default. The returned slice is ascending.
func LocalityPack(freeList []int, n, groupSize int) []int {
	if n <= 0 || n > len(freeList) {
		return nil
	}
	if groupSize <= 0 {
		out := slices.Clone(freeList[:n])
		slices.Sort(out)
		return out
	}
	// Bucket free nodes by group.
	groups := map[int][]int{}
	for _, id := range freeList {
		g := id / groupSize
		groups[g] = append(groups[g], id)
	}
	order := make([]int, 0, len(groups))
	for g := range groups {
		order = append(order, g)
	}
	// Fullest groups first; ties by group index for determinism.
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(len(groups[b]), len(groups[a])); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	out := make([]int, 0, n)
	for _, g := range order {
		for _, id := range groups[g] {
			if len(out) == n {
				break
			}
			out = append(out, id)
		}
		if len(out) == n {
			break
		}
	}
	slices.Sort(out)
	return out
}

// Packed is EASY with its start decisions rewritten to use
// locality-packed placement.
type Packed struct{}

// Name implements Algorithm.
func (p *Packed) Name() string { return "packed+easy" }

// WantsFreeList implements FreeListUser: locality packing picks explicit
// nodes from the free list.
func (p *Packed) WantsFreeList() bool { return true }

// Schedule implements Algorithm.
func (p *Packed) Schedule(inv *Invocation) []Decision {
	decisions := easy(inv, inv.Pending, RequestedSize)
	if inv.GroupSize <= 0 {
		return decisions
	}
	// Track which nodes remain free as we pin placements. EASY makes
	// only start decisions, none of them pinned.
	free := append([]int(nil), inv.FreeList...)
	for i := range decisions {
		d := &decisions[i]
		nodes := LocalityPack(free, d.NumNodes, inv.GroupSize)
		if nodes == nil {
			continue // let the engine try (and possibly reject) it
		}
		d.Nodes = nodes
		free = removeAll(free, nodes)
	}
	return decisions
}

// removeAll returns xs minus the sorted set rm (both ascending).
func removeAll(xs, rm []int) []int {
	out := xs[:0]
	i := 0
	for _, x := range xs {
		for i < len(rm) && rm[i] < x {
			i++
		}
		if i < len(rm) && rm[i] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}
