package des

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestKernelRunsEventsInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, tm := range []Time{5, 1, 3, 2, 4} {
		tm := tm
		k.Schedule(tm, PriorityDefault, func() { got = append(got, tm) })
	}
	drain(k)
	want := []Time{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
	if k.Now() != 5 {
		t.Errorf("clock at %v, want 5", k.Now())
	}
}

func TestKernelPriorityBreaksTies(t *testing.T) {
	k := NewKernel()
	var got []string
	k.Schedule(1, PriorityScheduler, func() { got = append(got, "sched") })
	k.Schedule(1, PriorityActivity, func() { got = append(got, "act") })
	k.Schedule(1, PriorityDefault, func() { got = append(got, "def") })
	drain(k)
	want := []string{"act", "def", "sched"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestKernelSequenceBreaksRemainingTies(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		k.Schedule(7, PriorityDefault, func() { got = append(got, i) })
	}
	drain(k)
	if !sort.IntsAreSorted(got) {
		t.Errorf("same-time same-priority events ran out of insertion order: %v", got)
	}
}

func TestKernelCancel(t *testing.T) {
	k := NewKernel()
	fired := false
	ev := k.Schedule(1, PriorityDefault, func() { fired = true })
	k.Cancel(ev)
	drain(k)
	if fired {
		t.Error("cancelled event fired")
	}
	if ev.index >= 0 {
		t.Error("event not marked cancelled")
	}
	// Double cancel must be harmless.
	k.Cancel(ev)
}

func TestKernelCancelFromHandler(t *testing.T) {
	k := NewKernel()
	fired := false
	var victim *Event
	k.Schedule(1, PriorityDefault, func() { k.Cancel(victim) })
	victim = k.Schedule(2, PriorityDefault, func() { fired = true })
	k.Schedule(3, PriorityDefault, func() {})
	drain(k)
	if fired {
		t.Error("event cancelled from handler still fired")
	}
	if k.Now() != 3 {
		t.Errorf("clock at %v, want 3", k.Now())
	}
}

// Under heavy random cancellation no cancelled event ever fires and the
// survivors still run in exact (time, priority, insertion) order.
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
	// Cancel ~60% of the backlog in random order.
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
	drain(k)
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
	drain(k)
	for i := range events {
		if i%2 == 0 && firedAt[i] {
			t.Errorf("event %d cancelled mid-run but fired", i)
		}
		if i%2 == 1 && !firedAt[i] {
			t.Errorf("event %d never fired", i)
		}
	}
}

// Pending counts only live events, and a double cancel counts once.
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
	fired := false
	ev2 := k.Schedule(2, PriorityDefault, func() { fired = true })
	if ev2 != ev {
		t.Errorf("Schedule did not reuse the released event allocation")
	}
	if ev2.time != 2 || ev2.index < 0 {
		t.Errorf("recycled event carries stale state: time %v cancelled %v", ev2.time, ev2.index < 0)
	}
	drain(k)
	if !fired {
		t.Error("recycled event did not fire")
	}
}

// Releasing an event that already fired recycles it immediately.
func TestKernelReleaseAfterFire(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(1, PriorityDefault, func() {})
	drain(k)
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

// Cancelling most of a backlog must preserve the survivors exactly, even
// when new schedules interleave with them.
func TestKernelCompactionInterleaved(t *testing.T) {
	k := NewKernel()
	var got []Time
	handler := func(tm Time) func() {
		return func() { got = append(got, tm) }
	}
	var evs []*Event
	for i := 0; i < 128; i++ {
		evs = append(evs, k.Schedule(Time(i), PriorityDefault, handler(Time(i))))
	}
	var want []Time
	for i, ev := range evs {
		if i%4 != 0 {
			k.Cancel(ev)
		} else {
			want = append(want, Time(i))
		}
	}
	// Schedule more events; they interleave with the survivors.
	for i := 0; i < 8; i++ {
		tm := Time(i*16) + 0.5
		k.Schedule(tm, PriorityDefault, handler(tm))
		want = append(want, tm)
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	drain(k)
	if len(got) != len(want) {
		t.Fatalf("fired %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestKernelScheduleAfter(t *testing.T) {
	k := NewKernel()
	var at Time
	k.Schedule(3, PriorityDefault, func() {
		k.ScheduleAfter(2, PriorityDefault, func() { at = k.Now() })
	})
	drain(k)
	if at != 5 {
		t.Errorf("fired at %v, want 5", at)
	}
}

func TestKernelSchedulePastPanics(t *testing.T) {
	k := NewKernel()
	k.Schedule(5, PriorityDefault, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.Schedule(1, PriorityDefault, func() {})
	})
	drain(k)
}

// TestKernelNaNTimePanics: a NaN time is neither before nor after now, so
// a check for "before now" alone let it in and the clock ran 5 → NaN → 5.
// Every scheduling entry point must refuse it, naming the NaN.
func TestKernelNaNTimePanics(t *testing.T) {
	nan := Time(math.NaN())
	k := NewKernel()
	k.Advance(5, math.MaxInt)
	for name, f := range map[string]func(){
		"Schedule":               func() { k.Schedule(nan, PriorityDefault, func() {}) },
		"ScheduleAfter":          func() { k.ScheduleAfter(nan, PriorityDefault, func() {}) },
		"ScheduleTransient":      func() { k.ScheduleTransient(nan, PriorityDefault, func() {}) },
		"ScheduleTransientAfter": func() { k.ScheduleTransientAfter(nan, PriorityDefault, func() {}) },
		"ScheduleReserved":       func() { k.ScheduleReserved(nan, PriorityDefault, k.ReserveSeq(), func() {}) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "NaN") {
					t.Errorf("%s at NaN: recovered %v, want a panic naming the NaN", name, r)
				}
			}()
			f()
		}()
	}
	if k.Pending() != 0 || k.Now() != 5 {
		t.Errorf("after refusing NaN: %d events pending, now %v; want 0 and 5", k.Pending(), k.Now())
	}
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	count := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), PriorityDefault, func() { count++ })
	}
	if n := k.Advance(4, math.MaxInt); n != 4 {
		t.Errorf("Advance(4) fired %d, want 4", n)
	}
	if count != 4 {
		t.Errorf("ran %d events, want 4", count)
	}
	if k.Now() != 4 {
		t.Errorf("clock at %v, want 4", k.Now())
	}
	// Remaining events still run afterwards.
	drain(k)
	if count != 10 {
		t.Errorf("ran %d events total, want 10", count)
	}
}

func TestKernelRunUntilAdvancesIdleClock(t *testing.T) {
	k := NewKernel()
	if n := k.Advance(42, math.MaxInt); n != 0 {
		t.Fatalf("Advance on an empty kernel fired %d", n)
	}
	if k.Now() != 42 {
		t.Errorf("clock at %v, want 42", k.Now())
	}
}

func TestKernelStepsCounter(t *testing.T) {
	k := NewKernel()
	for i := 0; i < 5; i++ {
		k.Schedule(Time(i), PriorityDefault, func() {})
	}
	drain(k)
	if k.Steps() != 5 {
		t.Errorf("Steps() = %d, want 5", k.Steps())
	}
}

// Property: for any set of (time, priority) pairs, execution order is the
// stable sort by (time, priority).
func TestKernelOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		k := NewKernel()
		type key struct {
			t    Time
			p    Priority
			sequ int
		}
		var want []key
		var got []key
		for i, v := range raw {
			kt := Time(v % 97)
			kp := Priority(int(v/97) % 5)
			kk := key{kt, kp, i}
			want = append(want, kk)
			k.Schedule(kt, kp, func() { got = append(got, kk) })
		}
		sort.SliceStable(want, func(i, j int) bool {
			if want[i].t != want[j].t {
				return want[i].t < want[j].t
			}
			if want[i].p != want[j].p {
				return want[i].p < want[j].p
			}
			return want[i].sequ < want[j].sequ
		})
		drain(k)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHeapRemoveMiddle(t *testing.T) {
	k := NewKernel()
	var got []Time
	events := make([]*Event, 0, 20)
	for i := 0; i < 20; i++ {
		tm := Time(i)
		events = append(events, k.Schedule(tm, PriorityDefault, func() { got = append(got, tm) }))
	}
	// Remove every third event.
	var want []Time
	for i := 0; i < 20; i++ {
		if i%3 == 0 {
			k.Cancel(events[i])
		} else {
			want = append(want, Time(i))
		}
	}
	drain(k)
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(12345), NewRNG(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed generators diverged")
		}
	}
	c := NewRNG(54321)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	a := NewRNG(7)
	s1 := a.Split()
	v1 := s1.Uint64()
	// A fresh parent advanced identically must produce the same split stream.
	b := NewRNG(7)
	s2 := b.Split()
	if got := s2.Uint64(); got != v1 {
		t.Errorf("split streams not reproducible: %d vs %d", got, v1)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(2)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Exp(0.5)
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Errorf("Exp(0.5) mean = %v, want ~2.0", mean)
	}
}

func TestRNGWeibullShapeOneIsExponential(t *testing.T) {
	r := NewRNG(3)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Weibull(1, 3)
	}
	mean := sum / n
	if math.Abs(mean-3.0) > 0.08 {
		t.Errorf("Weibull(1,3) mean = %v, want ~3.0", mean)
	}
}

func TestRNGLogUniformBounds(t *testing.T) {
	r := NewRNG(4)
	for i := 0; i < 10000; i++ {
		v := r.LogUniform(2, 512)
		if v < 2 || v > 512 {
			t.Fatalf("LogUniform out of bounds: %v", v)
		}
	}
}

func TestRNGPowerOfTwo(t *testing.T) {
	r := NewRNG(5)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := r.PowerOfTwo(4, 64)
		if v&(v-1) != 0 || v < 4 || v > 64 {
			t.Fatalf("PowerOfTwo(4,64) = %d", v)
		}
		seen[v] = true
	}
	for _, want := range []int{4, 8, 16, 32, 64} {
		if !seen[want] {
			t.Errorf("PowerOfTwo never produced %d", want)
		}
	}
}

func TestRNGIntnUniform(t *testing.T) {
	r := NewRNG(8)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for i, c := range counts {
		if c < n/10-n/50 || c > n/10+n/50 {
			t.Errorf("Intn(10) bucket %d count %d far from %d", i, c, n/10)
		}
	}
}

func TestKernelAccessors(t *testing.T) {
	k := NewKernel()
	ev := k.Schedule(3, PriorityDefault, func() {})
	if k.Pending() != 1 {
		t.Errorf("Pending = %d", k.Pending())
	}
	if ev.time != 3 {
		t.Errorf("Time = %v", ev.time)
	}
	if Time(1.25).String() != "1.250000s" {
		t.Errorf("String = %q", Time(1.25).String())
	}
	k.SetHorizon(2)
	drain(k)
	if k.Pending() != 1 {
		t.Error("event beyond horizon should remain queued")
	}
}

func TestKernelStats(t *testing.T) {
	k := NewKernel()
	events := make([]*Event, 0, 10)
	for i := 0; i < 10; i++ {
		events = append(events, k.Schedule(Time(i), PriorityDefault, func() {}))
	}
	k.Cancel(events[3])
	k.Cancel(events[7])
	k.Release(events[3])
	drain(k)
	// The released event feeds the free list; the next Schedule reuses it.
	k.Schedule(100, PriorityDefault, func() {})
	st := k.Stats()
	if st.Scheduled != 11 {
		t.Errorf("Scheduled = %d, want 11", st.Scheduled)
	}
	if st.Fired != 8 {
		t.Errorf("Fired = %d, want 8", st.Fired)
	}
	if st.Cancelled != 2 {
		t.Errorf("Cancelled = %d, want 2", st.Cancelled)
	}
	if st.Recycled != 1 {
		t.Errorf("Recycled = %d, want 1", st.Recycled)
	}
	if st.PeakQueue != 10 {
		t.Errorf("PeakQueue = %d, want 10", st.PeakQueue)
	}
	if k.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", k.Pending())
	}
}

func TestKernelInvalidArguments(t *testing.T) {
	k := NewKernel()
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("nil handler", func() { k.Schedule(1, PriorityDefault, nil) })
	mustPanic("negative delay", func() { k.ScheduleAfter(-1, PriorityDefault, func() {}) })
	seq := k.ReserveSeq()
	mustPanic("unreserved seq", func() { k.ScheduleReserved(1, PriorityDefault, seq+1, func() {}) })
	k.Advance(2, math.MaxInt)
	mustPanic("reserved seq in the past", func() { k.ScheduleReserved(1, PriorityDefault, seq, func() {}) })
}

// TestKernelReservedSeqOrdersFirst pins the seam the fluid solver's
// one-event-per-component scheduling rests on: an event enqueued under an
// earlier reserved sequence number fires before a same-(time, priority)
// peer scheduled between the reservation and the enqueue.
func TestKernelReservedSeqOrdersFirst(t *testing.T) {
	k := NewKernel()
	var got []string
	seq := k.ReserveSeq()
	k.Schedule(5, PriorityActivity, func() { got = append(got, "peer") })
	k.ScheduleReserved(5, PriorityActivity, seq, func() { got = append(got, "reserved") })
	k.Schedule(5, PriorityActivity, func() { got = append(got, "later") })
	drain(k)
	if want := "[reserved peer later]"; fmt.Sprint(got) != want {
		t.Errorf("fire order %v, want %s", got, want)
	}
	if st := k.Stats(); st.Scheduled != 3 || st.Fired != 3 {
		t.Errorf("Scheduled/Fired = %d/%d, want 3/3 (reserving consumes the number)", st.Scheduled, st.Fired)
	}
}

func TestRNGInvalidArguments(t *testing.T) {
	r := NewRNG(1)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("Intn(0)", func() { r.Intn(0) })
	mustPanic("Exp(0)", func() { r.Exp(0) })
	mustPanic("Weibull(0,1)", func() { r.Weibull(0, 1) })
	mustPanic("LogUniform(0,1)", func() { r.LogUniform(0, 1) })
	mustPanic("PowerOfTwo(0,4)", func() { r.PowerOfTwo(0, 4) })
}

func TestKernelStepN(t *testing.T) {
	k := NewKernel()
	fired := 0
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), PriorityDefault, func() { fired++ })
	}
	if n := k.Advance(Infinity, 3); n != 3 || fired != 3 {
		t.Fatalf("Advance(Infinity, 3) fired %d (counter %d), want 3", n, fired)
	}
	if k.Now() != 3 {
		t.Fatalf("clock at %v after 3 steps, want 3", k.Now())
	}
	if n := k.Advance(Infinity, 0); n != 0 {
		t.Fatalf("Advance(Infinity, 0) fired %d, want 0", n)
	}
	// Asking for more than remains stops at the drained queue.
	if n := k.Advance(Infinity, 100); n != 7 || fired != 10 {
		t.Fatalf("Advance(Infinity, 100) fired %d (counter %d), want 7", n, fired)
	}
	if n := k.Advance(Infinity, 5); n != 0 {
		t.Fatalf("Advance on a drained kernel fired %d", n)
	}
}

func TestKernelStepNStopsAtHorizon(t *testing.T) {
	k := NewKernel()
	fired := 0
	for i := 1; i <= 6; i++ {
		k.Schedule(Time(i), PriorityDefault, func() { fired++ })
	}
	k.SetHorizon(4)
	if n := k.Advance(Infinity, 10); n != 4 || fired != 4 {
		t.Fatalf("Advance under horizon 4 fired %d, want 4", n)
	}
	if k.Pending() != 2 {
		t.Fatalf("%d events pending beyond the horizon, want 2", k.Pending())
	}
	// Raising the horizon resumes exactly where it stopped.
	k.SetHorizon(Time(math.Inf(1)))
	if n := k.Advance(Infinity, 10); n != 2 || fired != 6 {
		t.Fatalf("Advance after raising the horizon fired %d, want 2", n)
	}
}

func TestKernelRunUntilClampsToHorizon(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, tm := range []Time{10, 20, 30} {
		tm := tm
		k.Schedule(tm, PriorityDefault, func() { got = append(got, tm) })
	}
	k.SetHorizon(25)
	// Advancing past the horizon is clamped: events at 30 stay queued and
	// the clock parks at the horizon, not the requested time.
	if n := k.Advance(100, math.MaxInt); n != 2 {
		t.Fatalf("Advance(100) fired %d, want 2", n)
	}
	if len(got) != 2 {
		t.Fatalf("fired %d events, want 2", len(got))
	}
	if k.Now() != 25 {
		t.Fatalf("clock at %v, want horizon 25", k.Now())
	}
	if k.Pending() != 1 {
		t.Fatalf("%d events pending, want 1", k.Pending())
	}
}

// drain fires every queued event.
func drain(k *Kernel) int { return k.Advance(Infinity, math.MaxInt) }

// TestKernelAdvanceFullSliceKeepsClock pins that a slice which used up its
// event budget has not reached its bound, so the clock stays at the last
// fired event; a later call to the same bound finishes the run and then
// moves the idle clock to it. An infinite bound never moves the clock.
func TestKernelAdvanceFullSliceKeepsClock(t *testing.T) {
	k := NewKernel()
	for i := 1; i <= 6; i++ {
		k.Schedule(Time(i), PriorityDefault, func() {})
	}
	if n := k.Advance(50, 2); n != 2 {
		t.Fatalf("Advance(50, 2) fired %d, want 2", n)
	}
	if k.Now() != 2 {
		t.Fatalf("clock at %v after a full slice, want 2 (time of the last fired event)", k.Now())
	}
	if n := k.Advance(Infinity, 2); n != 2 || k.Now() != 4 {
		t.Fatalf("Advance(Infinity, 2) fired %d to clock %v, want 2 to 4", n, k.Now())
	}
	if n := k.Advance(Infinity, 10); n != 2 || k.Now() != 6 {
		t.Fatalf("draining Advance(Infinity, 10) fired %d to clock %v, want 2 to 6", n, k.Now())
	}
	if n := k.Advance(50, 10); n != 0 || k.Now() != 50 {
		t.Fatalf("Advance(50, 10) on a drained kernel fired %d to clock %v, want 0 to 50", n, k.Now())
	}
}

// TestKernelAdvanceSlices pins what a driver reads between slices: each
// call returns how many events fired, the event counter is exact after
// every slice, and the queue keeps what was not fired for the next call.
func TestKernelAdvanceSlices(t *testing.T) {
	k := NewKernel()
	for i := 1; i <= 10; i++ {
		k.Schedule(Time(i), PriorityDefault, func() {})
	}
	var slices []int
	var steps []uint64
	for {
		n := k.Advance(Infinity, 3)
		slices = append(slices, n)
		steps = append(steps, k.Steps())
		if k.Pending() != 10-int(k.Steps()) {
			t.Fatalf("%d events pending after %d fired, want %d", k.Pending(), k.Steps(), 10-int(k.Steps()))
		}
		if n < 3 {
			break
		}
	}
	if fmt.Sprint(slices) != "[3 3 3 1]" {
		t.Errorf("slice sizes %v, want [3 3 3 1]", slices)
	}
	if fmt.Sprint(steps) != "[3 6 9 10]" {
		t.Errorf("Steps between slices %v, want [3 6 9 10]", steps)
	}
}

// TestKernelAdvanceSlicingInvisible pins that slicing changes nothing a
// handler can observe: a run advanced a few events at a time fires its
// events, ties included, in the order of one uninterrupted call.
func TestKernelAdvanceSlicingInvisible(t *testing.T) {
	build := func(got *[]int) *Kernel {
		k := NewKernel()
		for i := 0; i < 20; i++ {
			i := i
			// Ties at every other timestamp, with mixed priorities.
			k.Schedule(Time(i/2), Priority(i%3), func() { *got = append(*got, i) })
		}
		return k
	}
	var want []int
	drain(build(&want))
	var got []int
	k := build(&got)
	for k.Advance(Infinity, 3) > 0 {
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("sliced fire order %v, want %v", got, want)
	}
}
