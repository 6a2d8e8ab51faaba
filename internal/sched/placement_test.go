package sched

import (
	"testing"
)

func TestLocalityPackFillsFullestGroup(t *testing.T) {
	// Groups of 4; group 0 has 2 free, group 1 has 4 free, group 2 has 1.
	free := []int{0, 1, 4, 5, 6, 7, 8}
	got := LocalityPack(free, 4, 4)
	want := []int{4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestLocalityPackSpansMinimally(t *testing.T) {
	// 6 nodes needed from groups with 4+2+1 free: use group 1 (4) then
	// group 0 (2), never touching group 2.
	free := []int{0, 1, 4, 5, 6, 7, 8}
	got := LocalityPack(free, 6, 4)
	for _, id := range got {
		if id == 8 {
			t.Errorf("spanned an unnecessary third group: %v", got)
		}
	}
	if len(got) != 6 {
		t.Fatalf("got %d nodes", len(got))
	}
}

func TestLocalityPackNoGroups(t *testing.T) {
	free := []int{3, 1, 7}
	got := LocalityPack(free, 2, 0)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("got %v, want [1 3]", got)
	}
}

func TestLocalityPackInsufficient(t *testing.T) {
	if got := LocalityPack([]int{1, 2}, 3, 4); got != nil {
		t.Errorf("got %v for insufficient free nodes", got)
	}
	if got := LocalityPack(nil, 0, 4); got != nil {
		t.Errorf("got %v for zero request", got)
	}
}

func TestPackedRewritesStarts(t *testing.T) {
	p := &Packed{}
	inv := &Invocation{
		FreeNodes:  6,
		TotalNodes: 12,
		GroupSize:  4,
		// Group 0: node 2 free; group 1: 4,5,6,7 free; group 2: 9 free.
		FreeList: []int{2, 4, 5, 6, 7, 9},
		Pending:  []*JobView{mkPending(0, 4, 0), mkPending(1, 2, 0)},
	}
	ds := p.Schedule(inv)
	if len(ds) != 2 {
		t.Fatalf("decisions %v", ds)
	}
	// First job packs into group 1 entirely.
	want := []int{4, 5, 6, 7}
	for i, id := range ds[0].Nodes {
		if id != want[i] {
			t.Fatalf("job0 nodes %v, want %v", ds[0].Nodes, want)
		}
	}
	// Second job gets the leftovers without overlapping.
	seen := map[int]bool{}
	for _, id := range ds[0].Nodes {
		seen[id] = true
	}
	for _, id := range ds[1].Nodes {
		if seen[id] {
			t.Fatalf("overlapping placements: %v vs %v", ds[0].Nodes, ds[1].Nodes)
		}
	}
	if p.Name() != "packed+easy" {
		t.Errorf("name %q", p.Name())
	}
}

func TestPackedPassthroughWithoutGroups(t *testing.T) {
	p := &Packed{}
	inv := &Invocation{
		FreeNodes:  4,
		TotalNodes: 4,
		FreeList:   []int{0, 1, 2, 3},
		Pending:    []*JobView{mkPending(0, 2, 0)},
	}
	ds := p.Schedule(inv)
	if len(ds) != 1 || ds[0].Nodes != nil {
		t.Errorf("expected unpinned decision on star: %v", ds)
	}
}
