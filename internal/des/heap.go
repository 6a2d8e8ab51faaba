package des

// eventHeap is a 4-ary min-heap of events ordered by (time, priority, seq),
// the kernel's only pending-event store. Every event records its slot in
// Event.index, so Cancel removes it in O(log n) and nothing dead is ever
// queued. Four children per node halve the depth of a binary heap, which
// is what the pop-heavy fire loop pays for. It is hand-rolled rather than
// built on container/heap to avoid interface boxing on the hot path.
type eventHeap struct {
	items []*Event
}

func less(a, b *Event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

// push inserts ev and records its index.
func (h *eventHeap) push(ev *Event) {
	h.items = append(h.items, ev)
	h.up(len(h.items)-1, ev)
}

// pop removes and returns the earliest event; the heap must not be empty.
func (h *eventHeap) pop() *Event {
	top := h.items[0]
	h.remove(top)
	return top
}

// remove takes ev out of the heap and marks it detached (index -1).
func (h *eventHeap) remove(ev *Event) {
	i, last := ev.index, len(h.items)-1
	moved := h.items[last]
	h.items[last] = nil
	h.items = h.items[:last]
	ev.index = -1
	if i == last {
		return
	}
	if i > 0 && less(moved, h.items[(i-1)/4]) {
		h.up(i, moved)
	} else {
		h.down(i, moved)
	}
}

// up places ev at slot i and sifts it toward the root, shifting larger
// parents down into the hole instead of swapping.
func (h *eventHeap) up(i int, ev *Event) {
	items := h.items
	for i > 0 {
		p := (i - 1) / 4
		parent := items[p]
		if !less(ev, parent) {
			break
		}
		items[i] = parent
		parent.index = i
		i = p
	}
	items[i] = ev
	ev.index = i
}

// down places ev at slot i and sifts it toward the leaves, pulling the
// smallest of up to four children into the hole at each level.
func (h *eventHeap) down(i int, ev *Event) {
	items := h.items
	n := len(items)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best, child := first, items[first]
		for c, end := first+1, min(first+4, n); c < end; c++ {
			if e := items[c]; less(e, child) {
				best, child = c, e
			}
		}
		if !less(child, ev) {
			break
		}
		items[i] = child
		child.index = i
		i = best
	}
	items[i] = ev
	ev.index = i
}
