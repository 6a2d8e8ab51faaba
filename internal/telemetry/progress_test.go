package telemetry

import (
	"sync"
	"testing"
)

// TestProgressFanOut pins the multi-subscriber contract: concurrent
// subscribers, pollers, and a late subscriber all observe the stream
// without racing the ticking goroutine (run under -race), every channel
// eventually closes, and the final update carries Done with the last
// sampled state.
func TestProgressFanOut(t *testing.T) {
	fan := &ProgressFanOut{}
	const subscribers = 8
	const ticks = 5000

	var wg sync.WaitGroup
	finals := make([]ProgressUpdate, subscribers)
	for i := 0; i < subscribers; i++ {
		ch, cancel := fan.Subscribe(4)
		wg.Add(1)
		go func(i int, ch <-chan ProgressUpdate) {
			defer wg.Done()
			defer cancel()
			var last ProgressUpdate
			for u := range ch {
				if u.Events < last.Events {
					t.Errorf("subscriber %d: events went backwards: %d after %d", i, u.Events, last.Events)
					return
				}
				last = u
			}
			finals[i] = last
		}(i, ch)
	}
	// A poller hammering the last update concurrently with the ticker.
	pollDone := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-pollDone:
				return
			default:
				lastUpdate(fan)
			}
		}
	}()

	for i := 1; i <= ticks; i++ {
		fan.Tick(float64(i), uint64(i))
	}
	fan.Done()
	close(pollDone)
	wg.Wait()

	for i, u := range finals {
		if !u.Done {
			t.Errorf("subscriber %d: final update not marked done: %+v", i, u)
		}
		if u.Events != ticks {
			t.Errorf("subscriber %d: final events = %d, want %d", i, u.Events, ticks)
		}
	}

	// Late subscription after Done: immediately yields the final update.
	ch, cancel := fan.Subscribe(1)
	defer cancel()
	u, ok := <-ch
	if !ok || !u.Done || u.Events != ticks {
		t.Fatalf("late subscriber got %+v (ok=%v), want done update with %d events", u, ok, ticks)
	}
	if _, ok := <-ch; ok {
		t.Fatal("late subscriber channel not closed after final update")
	}

	// Ticks after Done are ignored, not redelivered.
	fan.Tick(99, 99)
	if last, _ := lastUpdate(fan); last.Events != ticks || !last.Done {
		t.Fatalf("tick after done mutated state: %+v", last)
	}
}

// TestProgressFanOutSlowSubscriber pins that a subscriber that never reads
// cannot block the ticking goroutine: latest-wins buffering drops stale
// updates instead.
func TestProgressFanOutSlowSubscriber(t *testing.T) {
	fan := &ProgressFanOut{}
	ch, cancel := fan.Subscribe(1)
	defer cancel()
	for i := 1; i <= 1000; i++ {
		fan.Tick(float64(i), uint64(i)) // must not block despite no reader
	}
	fan.Done()
	var last ProgressUpdate
	for u := range ch {
		last = u
	}
	if !last.Done || last.Events != 1000 {
		t.Fatalf("slow subscriber final update = %+v, want done with 1000 events", last)
	}
}

// TestProgressFanOutStalledAmongActive pins subscriber isolation under
// concurrency (run with -race): one subscriber never reads while others
// consume continuously; the ticker must never block, the active
// subscribers must see a monotone stream ending in Done, and the stalled
// channel must still hold the final update afterwards.
func TestProgressFanOutStalledAmongActive(t *testing.T) {
	fan := &ProgressFanOut{}
	const ticks = 20000

	stalled, cancelStalled := fan.Subscribe(1)
	defer cancelStalled()

	const active = 4
	var wg sync.WaitGroup
	finals := make([]ProgressUpdate, active)
	for i := 0; i < active; i++ {
		ch, cancel := fan.Subscribe(2)
		wg.Add(1)
		go func(i int, ch <-chan ProgressUpdate) {
			defer wg.Done()
			defer cancel()
			var last ProgressUpdate
			for u := range ch {
				if u.Events < last.Events {
					t.Errorf("active subscriber %d: events went backwards", i)
					return
				}
				last = u
			}
			finals[i] = last
		}(i, ch)
	}

	// Tick from a separate goroutine so subscriber reads genuinely race
	// the publisher; the main goroutine bounds the whole run with a
	// test timeout instead of trusting Tick never to block.
	tickerDone := make(chan struct{})
	go func() {
		defer close(tickerDone)
		for i := 1; i <= ticks; i++ {
			fan.Tick(float64(i), uint64(i))
		}
		fan.Done()
	}()
	<-tickerDone
	wg.Wait()

	for i, u := range finals {
		if !u.Done || u.Events != ticks {
			t.Errorf("active subscriber %d final = %+v, want done at %d", i, u, ticks)
		}
	}
	// The stalled subscriber lost intermediate updates (by design) but its
	// channel delivers the final state and closes.
	var last ProgressUpdate
	for u := range stalled {
		last = u
	}
	if !last.Done || last.Events != ticks {
		t.Errorf("stalled subscriber drained to %+v, want done at %d", last, ticks)
	}
}

// lastUpdate returns the fan-out's most recent update and whether any
// update happened yet.
func lastUpdate(f *ProgressFanOut) (ProgressUpdate, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.last, f.seen
}
