package des

import "testing"

// BenchmarkScheduleCancel measures the kernel's cancel path: schedule a
// completion event, then cancel it, as the fluid solver does when a
// component's earliest finisher changes. Each iteration performs one
// schedule+cancel against a backlog of 1024 pending events.
func BenchmarkScheduleCancel(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 1024; i++ {
		k.Schedule(Time(float64(i)+1e6), PriorityDefault, func() {})
	}
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := k.Schedule(Time(float64(i%1000)), PriorityActivity, fn)
		k.Cancel(ev)
	}
}

// BenchmarkScheduleFire measures the engine's hottest pattern: a
// fire-and-forget bookkeeping event scheduled and executed immediately.
// The transient API plus the kernel free list make this allocation-free.
func BenchmarkScheduleFire(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleTransient(k.Now(), PriorityDefault, fn)
		k.Step()
	}
}

// BenchmarkScheduleFireOwned is the owned-handle variant: the caller keeps
// the *Event (a job walltime kill, a task timer) and hands it back with
// Release after it fires, which keeps this path allocation-free too.
func BenchmarkScheduleFireOwned(b *testing.B) {
	k := NewKernel()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := k.Schedule(k.Now(), PriorityDefault, fn)
		k.Step()
		k.Release(ev)
	}
}

// BenchmarkBacklogFire measures schedule+fire against a deep backlog of
// far-future events — the million-job shape, where the ladder queue's
// O(1) routing beats the heap's O(log n) sift. The backlog events stay
// pending; each iteration pays only for its own event.
func BenchmarkBacklogFire(b *testing.B) {
	benchBacklogFire(b, NewKernel())
}

// BenchmarkBacklogFireHeap is the same workload on the reference
// binary-heap kernel, kept as the comparison point for BENCH reports.
func BenchmarkBacklogFireHeap(b *testing.B) {
	benchBacklogFire(b, NewHeapKernel())
}

func benchBacklogFire(b *testing.B, k *Kernel) {
	for i := 0; i < 1<<17; i++ {
		k.Schedule(Time(float64(i)+1e6), PriorityDefault, func() {})
	}
	// Prime the queue shape (first pop builds the ladder rungs).
	k.ScheduleTransient(k.Now(), PriorityDefault, func() {})
	k.Step()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleTransientAfter(0.5, PriorityDefault, fn)
		k.Step()
	}
}
