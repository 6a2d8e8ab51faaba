package des

import (
	"container/heap"
	"math/rand"
	"testing"
)

// orderKey is an event's place in the kernel's total order.
type orderKey struct {
	t   Time
	p   Priority
	seq uint64
}

func (a orderKey) less(b orderKey) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.p != b.p {
		return a.p < b.p
	}
	return a.seq < b.seq
}

type eventState uint8

const (
	statePending eventState = iota
	stateFired
	stateCancelled
)

// orderOracle is the model a test checks the kernel's fire order against.
// It records the (time, priority, seq) key of every event the test
// schedules, mirroring the kernel's sequence counter, and keeps the keys
// still pending in a container/heap. A firing handler reports its serial
// number to fire, which requires it to be the smallest pending key: so no
// live event had an earlier key, a cancelled event never fires, and no
// event fires twice.
type orderOracle struct {
	t       testing.TB
	seq     uint64
	keys    []orderKey // by serial number
	state   []eventState
	pending pendingKeys // cancelled entries are skipped when they surface
	fired   uint64
	cancels uint64
}

type pendingEntry struct {
	key orderKey
	n   int
}

type pendingKeys []pendingEntry

func (h pendingKeys) Len() int           { return len(h) }
func (h pendingKeys) Less(i, j int) bool { return h[i].key.less(h[j].key) }
func (h pendingKeys) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *pendingKeys) Push(x any)        { *h = append(*h, x.(pendingEntry)) }
func (h *pendingKeys) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// reserve mirrors Kernel.ReserveSeq.
func (o *orderOracle) reserve() uint64 {
	o.seq++
	return o.seq - 1
}

// schedule records an event the test enqueues at (t, p) under a fresh
// sequence number and returns its serial number.
func (o *orderOracle) schedule(t Time, p Priority) int {
	return o.scheduleReserved(t, p, o.reserve())
}

// scheduleReserved records an event enqueued under a reserved number.
func (o *orderOracle) scheduleReserved(t Time, p Priority, seq uint64) int {
	n := len(o.keys)
	key := orderKey{t, p, seq}
	o.keys = append(o.keys, key)
	o.state = append(o.state, statePending)
	heap.Push(&o.pending, pendingEntry{key, n})
	return n
}

func (o *orderOracle) skipCancelled() {
	for len(o.pending) > 0 && o.state[o.pending[0].n] == stateCancelled {
		heap.Pop(&o.pending)
	}
}

// fire is called by event n's handler.
func (o *orderOracle) fire(n int) {
	o.t.Helper()
	o.skipCancelled()
	if len(o.pending) == 0 || o.pending[0].n != n {
		if o.state[n] != statePending {
			o.t.Fatalf("event #%d %+v fired in state %d", n, o.keys[n], o.state[n])
		}
		o.t.Fatalf("event #%d %+v fired while #%d %+v was pending", n, o.keys[n], o.pending[0].n, o.pending[0].key)
	}
	heap.Pop(&o.pending)
	o.state[n] = stateFired
	o.fired++
}

// cancel records Kernel.Cancel on event n; like it, a no-op once n fired.
func (o *orderOracle) cancel(n int) {
	if o.state[n] == statePending {
		o.state[n] = stateCancelled
		o.cancels++
	}
}

// drained checks, after the kernel ran dry, that every event not cancelled
// fired and that the kernel's counters agree with the model's.
func (o *orderOracle) drained(k *Kernel) {
	o.t.Helper()
	o.skipCancelled()
	if len(o.pending) > 0 {
		o.t.Fatalf("%d events never fired; first #%d %+v", len(o.pending), o.pending[0].n, o.pending[0].key)
	}
	st := k.Stats()
	if st.Scheduled != o.seq || st.Fired != o.fired || st.Cancelled != o.cancels || st.Pending != 0 {
		o.t.Fatalf("kernel stats %+v, model scheduled %d fired %d cancelled %d", st, o.seq, o.fired, o.cancels)
	}
}

// queueScript executes a deterministic op stream against a fresh kernel
// and checks every fire against an orderOracle.
//
// The op stream exercises everything the engine does: schedules at mixed
// priorities with heavy timestamp ties, far-future bursts,
// schedule-from-handler at the current timestamp, cancels, releases,
// transients, bulk fires, horizon-bounded RunUntil, and the fluid
// solver's reserve-then-enqueue pattern: sequence numbers reserved early
// and enqueued later (possibly behind same-time peers that already
// fired), and re-enqueued after their event was cancelled.
func queueScript(t testing.TB, data []byte) {
	k := NewKernel()
	o := &orderOracle{t: t}
	type held struct {
		ev       *Event
		n        int
		reserved bool // enqueued under a ReserveSeq number
	}
	var live []held
	var lastCancelled *Event
	var reserved []uint64 // reserved numbers with no live event
	rd := func(i int) byte {
		return data[i%len(data)]
	}
	prios := []Priority{PriorityActivity, PriorityEngine, PriorityDefault, PriorityScheduler}
	for i := 0; i < len(data); i += 2 {
		op, arg := rd(i), rd(i+1)
		delta := Time(arg%16) * 0.25
		prio := prios[arg%4]
		switch op % 10 {
		case 0, 1:
			n := o.schedule(k.Now()+delta, prio)
			live = append(live, held{k.ScheduleAfter(delta, prio, func() { o.fire(n) }), n, false})
		case 2:
			// Handler schedules a follow-up at the very timestamp it
			// fires at, possibly at a higher priority than its own.
			n := o.schedule(k.Now()+delta, prio)
			live = append(live, held{k.ScheduleAfter(delta, prio, func() {
				o.fire(n)
				p := prios[(arg>>2)%4]
				m := o.schedule(k.Now(), p)
				k.ScheduleTransient(k.Now(), p, func() { o.fire(m) })
			}), n, false})
		case 3:
			if len(live) > 0 {
				idx := int(arg) % len(live)
				h := live[idx]
				live[idx] = live[len(live)-1]
				live = live[:len(live)-1]
				if h.reserved && !h.ev.Cancelled() { // still pending: its number is free again
					reserved = append(reserved, o.keys[h.n].seq)
				}
				k.Cancel(h.ev)
				o.cancel(h.n)
				lastCancelled = h.ev
			}
		case 4:
			if lastCancelled != nil {
				k.Release(lastCancelled)
				lastCancelled = nil
			}
		case 5:
			k.StepN(int(arg%8) + 1)
		case 6:
			// Far-future burst with ties sprinkled in.
			base := k.Now() + Time(arg%32)*7
			for j := 0; j < int(arg%96)+16; j++ {
				at := base + Time((j*j)%113)*0.5
				n := o.schedule(at, prios[j%4])
				live = append(live, held{k.Schedule(at, prios[j%4], func() { o.fire(n) }), n, false})
			}
		case 7:
			_ = k.RunUntil(k.Now() + Time(arg%64))
		case 8:
			seq := k.ReserveSeq()
			if want := o.reserve(); seq != want {
				t.Fatalf("ReserveSeq = %d, model %d", seq, want)
			}
			reserved = append(reserved, seq)
		case 9:
			if len(reserved) > 0 {
				idx := int(arg) % len(reserved)
				seq := reserved[idx]
				reserved[idx] = reserved[len(reserved)-1]
				reserved = reserved[:len(reserved)-1]
				n := o.scheduleReserved(k.Now()+delta, prio, seq)
				ev := k.ScheduleReserved(k.Now()+delta, prio, seq, func() { o.fire(n) })
				live = append(live, held{ev, n, true})
			}
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	o.drained(k)
}

// TestKernelOrder drives the kernel through randomized
// schedule/cancel/release/advance scripts and checks every fire against
// the oracle.
func TestKernelOrder(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 64+rng.Intn(4000))
		rng.Read(data)
		queueScript(t, data)
	}
}

// TestKernelMassiveMonotonicBurst is the million-submit shape: one huge
// pre-scheduled batch spread over a long span, drained interleaved with
// near-now completions scheduled from handlers.
func TestKernelMassiveMonotonicBurst(t *testing.T) {
	k := NewKernel()
	o := &orderOracle{t: t}
	rng := rand.New(rand.NewSource(7))
	at := 0.0
	for i := 0; i < 50000; i++ {
		at += rng.Float64() * 0.3
		d := Time(i%17) * 0.125
		n := o.schedule(Time(at), PriorityEngine)
		k.Schedule(Time(at), PriorityEngine, func() {
			o.fire(n)
			// Near-future completion, like a task finishing.
			m := o.schedule(k.Now()+d, PriorityActivity)
			k.ScheduleTransientAfter(d, PriorityActivity, func() { o.fire(m) })
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	o.drained(k)
	if o.fired != 100000 {
		t.Fatalf("fired %d events, want 100000", o.fired)
	}
}

// FuzzLadderOrder lets the fuzzer look for op streams on which the kernel
// fires out of the oracle's order. The name predates the heap-only kernel
// and is kept so the test IDs and any local fuzz corpus stay valid.
func FuzzLadderOrder(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{6, 255, 5, 7, 6, 128, 5, 255})
	rng := rand.New(rand.NewSource(42))
	seed := make([]byte, 512)
	rng.Read(seed)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1<<16 {
			return
		}
		queueScript(t, data)
	})
}
