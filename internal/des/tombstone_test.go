package des

import (
	"math/rand"
	"sort"
	"testing"
)

// TestKernelTombstoneOrdering is the lazy-deletion kernel contract: under
// heavy random cancellation (enough to trigger bulk compaction several
// times), no cancelled event ever fires and the survivors still run in
// exact (time, priority, insertion) order.
func TestKernelTombstoneOrdering(t *testing.T) {
	k := NewKernel()
	rng := rand.New(rand.NewSource(42))
	const n = 4096
	type rec struct {
		time Time
		prio Priority
		id   int
	}
	events := make([]*Event, n)
	var fired []rec
	var want []rec
	cancelled := make([]bool, n)
	for i := 0; i < n; i++ {
		r := rec{Time(rng.Intn(200)), Priority(rng.Intn(3)), i}
		events[i] = k.Schedule(r.time, r.prio, func() {
			if cancelled[r.id] {
				t.Errorf("cancelled event %d fired", r.id)
			}
			fired = append(fired, r)
		})
		want = append(want, r)
	}
	// Cancel ~60% of the backlog in random order: more than enough to
	// cross the tombs*2 > len threshold and force compaction.
	for _, i := range rng.Perm(n) {
		if rng.Float64() < 0.6 {
			k.Cancel(events[i])
			cancelled[i] = true
		}
	}
	live := want[:0]
	for _, r := range want {
		if !cancelled[r.id] {
			live = append(live, r)
		}
	}
	sort.SliceStable(live, func(i, j int) bool {
		if live[i].time != live[j].time {
			return live[i].time < live[j].time
		}
		if live[i].prio != live[j].prio {
			return live[i].prio < live[j].prio
		}
		return live[i].id < live[j].id
	})
	if got := k.Pending(); got != len(live) {
		t.Fatalf("Pending() = %d, want %d live events", got, len(live))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != len(live) {
		t.Fatalf("fired %d events, want %d", len(fired), len(live))
	}
	for i := range live {
		if fired[i] != live[i] {
			t.Fatalf("position %d: fired %+v, want %+v", i, fired[i], live[i])
		}
	}
}

// Cancelling mid-run (from handlers) must also suppress execution, even
// for events at the very front of the queue.
func TestKernelTombstoneCancelDuringRun(t *testing.T) {
	k := NewKernel()
	var events []*Event
	firedAt := make(map[int]bool)
	for i := 0; i < 128; i++ {
		i := i
		events = append(events, k.Schedule(Time(10+i), PriorityDefault, func() { firedAt[i] = true }))
	}
	// At t=5, cancel every even event.
	k.Schedule(5, PriorityDefault, func() {
		for i := 0; i < len(events); i += 2 {
			k.Cancel(events[i])
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range events {
		if i%2 == 0 && firedAt[i] {
			t.Errorf("event %d cancelled mid-run but fired", i)
		}
		if i%2 == 1 && !firedAt[i] {
			t.Errorf("event %d never fired", i)
		}
	}
}

// Pending must count only live events while tombstones linger in the queue.
func TestKernelPendingExcludesTombstones(t *testing.T) {
	k := NewKernel()
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, k.Schedule(Time(i+1), PriorityDefault, func() {}))
	}
	k.Cancel(evs[3])
	k.Cancel(evs[7])
	if got := k.Pending(); got != 8 {
		t.Errorf("Pending() = %d, want 8", got)
	}
	k.Cancel(evs[3]) // double cancel must not double count
	if got := k.Pending(); got != 8 {
		t.Errorf("Pending() after double cancel = %d, want 8", got)
	}
}

// Release recycles the allocation: a Schedule following Cancel+Release (or
// fire+Release) must reuse the same Event without leaking stale state.
func TestKernelReleaseReusesAllocation(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(1, PriorityActivity, func() {})
	k.Cancel(ev)
	k.Release(ev)
	// The tombstone is still queued; draining it feeds the free list.
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	fired := false
	ev2 := k.Schedule(2, PriorityDefault, func() { fired = true })
	if ev2 != ev {
		t.Errorf("Schedule did not reuse the released event allocation")
	}
	if ev2.Time() != 2 || ev2.Cancelled() {
		t.Errorf("recycled event carries stale state: time %v cancelled %v", ev2.Time(), ev2.Cancelled())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("recycled event did not fire")
	}
}

// Releasing an event that already fired recycles it immediately.
func TestKernelReleaseAfterFire(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(1, PriorityDefault, func() {})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	k.Release(ev)
	k.Release(ev) // double release is a no-op
	ev2 := k.Schedule(5, PriorityDefault, func() {})
	if ev2 != ev {
		t.Errorf("fired+released event was not reused")
	}
}

// Releasing a live scheduled event is an ownership bug and must panic.
func TestKernelReleaseLivePanics(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(1, PriorityDefault, func() {})
	defer func() {
		if recover() == nil {
			t.Error("Release of a live event did not panic")
		}
	}()
	k.Release(ev)
}

// Compaction must preserve live events exactly even when interleaved with
// new schedules, and must reset the tombstone count.
func TestKernelCompactionInterleaved(t *testing.T) {
	k := NewKernel()
	var got []Time
	handler := func(tm Time) func() {
		return func() { got = append(got, tm) }
	}
	var evs []*Event
	for i := 0; i < compactMinQueue*2; i++ {
		evs = append(evs, k.Schedule(Time(i), PriorityDefault, handler(Time(i))))
	}
	var want []Time
	for i, ev := range evs {
		if i%4 != 0 {
			k.Cancel(ev) // 75% dead: guarantees a compaction fires
		} else {
			want = append(want, Time(i))
		}
	}
	// Schedule more events after compaction; they interleave with survivors.
	for i := 0; i < 8; i++ {
		tm := Time(i*16) + 0.5
		k.Schedule(tm, PriorityDefault, handler(tm))
		want = append(want, tm)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("fired %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: fired at %v, want %v", i, got[i], want[i])
		}
	}
	if k.tombs != 0 {
		t.Errorf("tombstone count %d after drain, want 0", k.tombs)
	}
}
