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

// BenchmarkBacklogFire is the deep-backlog stress test: schedule+fire of a
// near-now event against 2^17 far-future events that stay pending, so each
// iteration sifts through the full depth of the heap. No simulator
// workload queues this deep (the engine chains submissions); the benchmark
// bounds the cost if one ever does.
func BenchmarkBacklogFire(b *testing.B) {
	k := NewKernel()
	for i := 0; i < 1<<17; i++ {
		k.Schedule(Time(float64(i)+1e6), PriorityDefault, func() {})
	}
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k.ScheduleTransientAfter(0.5, PriorityDefault, fn)
		k.Step()
	}
}
