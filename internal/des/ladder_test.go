package des

import (
	"math/rand"
	"testing"
)

// queueScript executes a deterministic op stream against a kernel and
// returns the order in which event serial numbers fired. Running the same
// stream against a ladder kernel and a heap kernel must produce the
// bit-identical log: the two queues promise the same total order.
//
// The op stream exercises everything the engine does: schedules at mixed
// priorities with heavy timestamp ties, far-future bursts (top transfers
// and rung builds), schedule-from-handler at the current timestamp
// (bottom-heap races), cancels, releases, transients, bulk fires,
// horizon-bounded RunUntil, and the fluid solver's reserve-then-enqueue
// pattern: sequence numbers reserved early and enqueued later (possibly
// behind same-time peers that already fired), and re-enqueued after their
// event was cancelled.
func queueScript(k *Kernel, data []byte) []int {
	var log []int
	var live []*Event
	var lastCancelled *Event
	var reserved []uint64             // reserved numbers with no live event
	reservedOf := map[*Event]uint64{} // live events enqueued under a reservation
	serial := 0
	rd := func(i int) byte {
		if len(data) == 0 {
			return 0
		}
		return data[i%len(data)]
	}
	prios := []Priority{PriorityActivity, PriorityEngine, PriorityDefault, PriorityScheduler}
	for i := 0; i < len(data); i += 2 {
		op, arg := rd(i), rd(i+1)
		delta := Time(arg%16) * 0.25
		prio := prios[arg%4]
		switch op % 10 {
		case 0, 1:
			n := serial
			serial++
			live = append(live, k.ScheduleAfter(delta, prio, func() { log = append(log, n) }))
		case 2:
			// Handler schedules a follow-up at the very timestamp it
			// fires at — the equal-time race the bottom heap must win.
			n := serial
			serial += 2
			m := n + 1
			live = append(live, k.ScheduleAfter(delta, prio, func() {
				log = append(log, n)
				k.ScheduleTransient(k.Now(), prios[(arg>>2)%4], func() { log = append(log, m) })
			}))
		case 3:
			if len(live) > 0 {
				idx := int(arg) % len(live)
				ev := live[idx]
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
				if seq, ok := reservedOf[ev]; ok {
					if !ev.Cancelled() { // still pending: its number is free again
						reserved = append(reserved, seq)
					}
					delete(reservedOf, ev)
				}
				k.Cancel(ev)
				lastCancelled = ev
			}
		case 4:
			if lastCancelled != nil {
				k.Release(lastCancelled)
				lastCancelled = nil
			}
		case 5:
			k.StepN(int(arg%8) + 1)
		case 6:
			// Far-future burst: builds a top worth transferring into a
			// rung, with ties sprinkled in.
			base := k.Now() + Time(arg%32)*7
			for j := 0; j < int(arg%96)+16; j++ {
				n := serial
				serial++
				at := base + Time((j*j)%113)*0.5
				live = append(live, k.Schedule(at, prios[j%4], func() { log = append(log, n) }))
			}
		case 7:
			_ = k.RunUntil(k.Now() + Time(arg%64))
		case 8:
			reserved = append(reserved, k.ReserveSeq())
		case 9:
			if len(reserved) > 0 {
				idx := int(arg) % len(reserved)
				seq := reserved[idx]
				reserved[idx] = reserved[len(reserved)-1]
				reserved = reserved[:len(reserved)-1]
				n := serial
				serial++
				ev := k.ScheduleReserved(k.Now()+delta, prio, seq, func() { log = append(log, n) })
				live = append(live, ev)
				reservedOf[ev] = seq
			}
		}
	}
	_ = k.Run()
	return log
}

func diffLogs(t *testing.T, data []byte) {
	t.Helper()
	ladder := queueScript(NewKernel(), data)
	heap := queueScript(NewHeapKernel(), data)
	if len(ladder) != len(heap) {
		t.Fatalf("fire counts diverged: ladder %d, heap %d (script %d bytes)", len(ladder), len(heap), len(data))
	}
	for i := range ladder {
		if ladder[i] != heap[i] {
			t.Fatalf("fire order diverged at event %d: ladder fired #%d, heap fired #%d (script %d bytes)",
				i, ladder[i], heap[i], len(data))
		}
	}
}

// TestLadderHeapEquivalence drives both queue implementations through
// randomized schedule/cancel/release/advance scripts and requires the
// fire order to match event for event.
func TestLadderHeapEquivalence(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 64 + rng.Intn(4000)
		data := make([]byte, n)
		rng.Read(data)
		diffLogs(t, data)
	}
}

// TestLadderMassiveMonotonicBurst is the million-submit shape: one huge
// pre-scheduled batch spread over a long span, drained interleaved with
// near-now completions scheduled from handlers.
func TestLadderMassiveMonotonicBurst(t *testing.T) {
	run := func(k *Kernel) []int {
		var log []int
		rng := rand.New(rand.NewSource(7))
		at := 0.0
		for i := 0; i < 50000; i++ {
			n := i
			at += rng.Float64() * 0.3
			tt := Time(at)
			k.Schedule(tt, PriorityEngine, func() {
				log = append(log, n)
				// Near-future completion, like a task finishing.
				k.ScheduleTransientAfter(Time(n%17)*0.125, PriorityActivity, func() { log = append(log, -n) })
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	ladder, heap := run(NewKernel()), run(NewHeapKernel())
	if len(ladder) != len(heap) {
		t.Fatalf("fire counts diverged: %d vs %d", len(ladder), len(heap))
	}
	for i := range ladder {
		if ladder[i] != heap[i] {
			t.Fatalf("fire order diverged at %d: %d vs %d", i, ladder[i], heap[i])
		}
	}
}

// FuzzLadderOrder lets the fuzzer look for op streams where the ladder
// and heap kernels disagree on fire order.
func FuzzLadderOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{6, 255, 5, 7, 6, 128, 5, 255})
	rng := rand.New(rand.NewSource(42))
	seed := make([]byte, 512)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		diffLogs(t, data)
	})
}
