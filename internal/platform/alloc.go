package platform

import (
	"fmt"
	"math/bits"
	"sort"
)

// Allocator tracks node ownership. Node selection is deterministic
// (lowest-numbered free nodes first) so simulations are reproducible.
//
// Internally owner names are interned to small integer handles and the
// free pool is a bitset: Allocate pops the lowest set bits, Release and
// AllocateNodes touch only the named nodes, and ownership checks compare
// integers instead of strings. Handles are recycled when an owner's last
// node is released, so the intern table is bounded by the number of
// concurrent owners, not workload length. The string API is unchanged.
type Allocator struct {
	total int
	free  int
	// owner[i] == 0 means free; otherwise an index into names.
	owner []int32
	// words is the free-node bitset (bit set = free).
	words []uint64
	// hint is the lowest word index that may contain a free bit.
	hint int

	names   []string         // handle -> owner name; names[0] = ""
	handles map[string]int32 // owner name -> handle
	held    []int32          // handle -> node count (recycled at zero)
	spare   []int32          // free handles
}

// NewAllocator creates an allocator for a platform with n nodes.
func NewAllocator(n int) *Allocator {
	a := &Allocator{
		total:   n,
		free:    n,
		owner:   make([]int32, n),
		words:   make([]uint64, (n+63)/64),
		names:   []string{""},
		held:    []int32{0},
		handles: map[string]int32{},
	}
	for i := range a.words {
		a.words[i] = ^uint64(0)
	}
	if r := n & 63; r != 0 {
		a.words[len(a.words)-1] = 1<<uint(r) - 1
	}
	return a
}

// intern returns the owner's handle, assigning one on first sight.
func (a *Allocator) intern(owner string) int32 {
	if h, ok := a.handles[owner]; ok {
		return h
	}
	var h int32
	if n := len(a.spare); n > 0 {
		h = a.spare[n-1]
		a.spare = a.spare[:n-1]
		a.names[h] = owner
	} else {
		h = int32(len(a.names))
		a.names = append(a.names, owner)
		a.held = append(a.held, 0)
	}
	a.handles[owner] = h
	return h
}

// unref drops n nodes from the handle's count, retiring it at zero.
func (a *Allocator) unref(h int32, n int) {
	a.held[h] -= int32(n)
	if a.held[h] == 0 {
		delete(a.handles, a.names[h])
		a.names[h] = ""
		a.spare = append(a.spare, h)
	}
}

// freeNode returns node i to the free pool.
func (a *Allocator) freeNode(i int) {
	a.owner[i] = 0
	a.words[i>>6] |= 1 << (uint(i) & 63)
	if i>>6 < a.hint {
		a.hint = i >> 6
	}
}

// Total returns the machine size.
func (a *Allocator) Total() int { return a.total }

// Free returns the number of unallocated nodes.
func (a *Allocator) Free() int { return a.free }

// Owned returns how many nodes owner currently holds, in O(1).
func (a *Allocator) Owned(owner string) int {
	return int(a.held[a.handles[owner]])
}

func (a *Allocator) check(id NodeID) int {
	if int(id) < 0 || int(id) >= a.total {
		panic(fmt.Sprintf("platform: node %d out of range [0,%d)", id, a.total))
	}
	return int(id)
}

// FreeNodes returns the IDs of all free nodes in ascending order.
func (a *Allocator) FreeNodes() []NodeID {
	out := make([]NodeID, 0, a.free)
	for w, word := range a.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			out = append(out, NodeID(w<<6|b))
		}
	}
	return out
}

// Allocate claims count free nodes (lowest IDs first) for owner.
func (a *Allocator) Allocate(owner string, count int) ([]NodeID, error) {
	if owner == "" {
		return nil, fmt.Errorf("platform: empty owner")
	}
	if count <= 0 {
		return nil, fmt.Errorf("platform: allocation of %d nodes", count)
	}
	if count > a.free {
		return nil, fmt.Errorf("platform: %d nodes requested, %d free", count, a.free)
	}
	h := a.intern(owner)
	out := make([]NodeID, 0, count)
	for w := a.hint; len(out) < count; w++ {
		word := a.words[w]
		for word != 0 && len(out) < count {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			i := w<<6 | b
			a.owner[i] = h
			out = append(out, NodeID(i))
		}
		a.words[w] = word
	}
	a.free -= count
	a.held[h] += int32(count)
	for a.hint < len(a.words) && a.words[a.hint] == 0 {
		a.hint++
	}
	return out, nil
}

// AllocateNodes claims the specific nodes for owner. It fails without side
// effects if any node is taken.
func (a *Allocator) AllocateNodes(owner string, ids []NodeID) error {
	if owner == "" {
		return fmt.Errorf("platform: empty owner")
	}
	if len(ids) == 0 {
		return fmt.Errorf("platform: empty node list")
	}
	for _, id := range ids {
		a.check(id)
	}
	// Claim free bits one at a time; a bit already clear means the node is
	// either owned or a duplicate earlier in ids. Roll back on failure.
	for k, id := range ids {
		i := int(id)
		w, mask := i>>6, uint64(1)<<(uint(i)&63)
		if a.words[w]&mask == 0 {
			for _, prev := range ids[:k] {
				p := int(prev)
				a.words[p>>6] |= 1 << (uint(p) & 63)
			}
			if a.owner[i] != 0 {
				return fmt.Errorf("platform: node %d already owned by %s", id, a.names[a.owner[i]])
			}
			return fmt.Errorf("platform: node %d listed twice", id)
		}
		a.words[w] &^= mask
	}
	h := a.intern(owner)
	for _, id := range ids {
		a.owner[int(id)] = h
	}
	a.free -= len(ids)
	a.held[h] += int32(len(ids))
	return nil
}

// Release frees the given nodes, verifying ownership.
func (a *Allocator) Release(owner string, ids []NodeID) error {
	h, ok := a.handles[owner]
	if !ok {
		h = -1 // owner holds nothing; any non-empty ids fail below
	}
	for _, id := range ids {
		i := a.check(id)
		if a.owner[i] != h {
			return fmt.Errorf("platform: node %d owned by %q, not %q", id, a.names[a.owner[i]], owner)
		}
	}
	for _, id := range ids {
		a.freeNode(int(id))
	}
	a.free += len(ids)
	if h >= 0 && len(ids) > 0 {
		a.unref(h, len(ids))
	}
	return nil
}

// SortNodeIDs sorts a node-ID slice ascending, in place, and returns it.
func SortNodeIDs(ids []NodeID) []NodeID {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
