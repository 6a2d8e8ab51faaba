package elastisim

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// hookAlgo wraps an algorithm and calls hook at its at-th invocation
// (1-based); with yield set, every later invocation yields the processor.
// The hook runs inside a slice, on whichever goroutine drives the session.
type hookAlgo struct {
	Algorithm
	at    int
	hook  func()
	yield bool
	calls int
}

func (a *hookAlgo) Schedule(inv *Invocation) []Decision {
	a.calls++
	if a.calls == a.at {
		a.hook()
	} else if a.calls > a.at && a.yield {
		runtime.Gosched()
	}
	return a.Algorithm.Schedule(inv)
}

// eventsAtInvocation steps a fresh session one event at a time and returns
// how many events had fired once the algorithm's at-th invocation ran.
func eventsAtInvocation(t *testing.T, at int) uint64 {
	t.Helper()
	reached := false
	cfg := equivalenceConfig(t, Options{})
	cfg.Algorithm = &hookAlgo{Algorithm: cfg.Algorithm, at: at, hook: func() { reached = true }}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for !reached {
		if n, err := s.Step(1); err != nil || n == 0 {
			t.Fatalf("invocation %d never ran (Step = %d, %v)", at, n, err)
		}
	}
	return s.Peek().Events
}

// TestSessionPeekDuringRun pins that Peek answers while Run is in flight:
// Run releases the session mutex between slices, so a Peek from another
// goroutine sees the run part-way, not only its end.
func TestSessionPeekDuringRun(t *testing.T) {
	ref, _, _ := equivalenceRunOpts(t, Options{})
	started := make(chan struct{})
	cfg := equivalenceConfig(t, Options{})
	// Hold the first slice long enough for the Peek to queue on the
	// mutex, then let it run on any processor: a waiter that waited over
	// a millisecond is handed the mutex at the next unlock, which is the
	// end of a slice.
	cfg.Algorithm = &hookAlgo{Algorithm: cfg.Algorithm, at: 1, yield: true, hook: func() {
		close(started)
		time.Sleep(50 * time.Millisecond)
	}}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	peeked := make(chan Peek)
	go func() {
		<-started
		peeked <- s.Peek()
	}()
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p := <-peeked
	if p.Events == 0 || p.Events >= res.Events || p.Done {
		t.Errorf("Peek during Run = {Events: %d, Done: %t}, want 0 < Events < %d and not done", p.Events, p.Done, res.Events)
	}
	if res.Events != ref.Events {
		t.Errorf("run fired %d events, the reference %d", res.Events, ref.Events)
	}
}

// TestSessionConcurrentDrivers drives one session from several goroutines
// at once: a Run whose context is cancelled mid-run and then resumed by
// two concurrent Runs, a Step loop, and a Peek loop. Slices interleave
// under the mutex, so the result must be bit-identical to an uninterrupted
// run, both resumed Runs must return the one cached Result, and the
// session must count as finished exactly once.
func TestSessionConcurrentDrivers(t *testing.T) {
	ref, refTrace, refCSV := equivalenceRunOpts(t, Options{Trace: true})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg := NewMetricsRegistry()
	cfg := equivalenceConfig(t, Options{Trace: true})
	cfg.Algorithm = &hookAlgo{Algorithm: cfg.Algorithm, at: 5, hook: cancel}
	cfg.Metrics = reg
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stopPeek := make(chan struct{})
	wg.Add(2)
	go func() { // a bounded Step loop: it cannot drain the run on its own
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := s.Step(97); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // Peeks never see the run go backwards
		defer wg.Done()
		var last uint64
		for {
			select {
			case <-stopPeek:
				return
			default:
			}
			p := s.Peek()
			if p.Events < last {
				t.Errorf("Peek went back from %d to %d events", last, p.Events)
			}
			last = p.Events
		}
	}()

	partial, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run error = %v, want context.Canceled", err)
	}
	if partial.Abort != AbortCancelled || partial.Events >= ref.Events {
		t.Errorf("cancelled Run = {Abort: %v, Events: %d}, want cancelled before %d events", partial.Abort, partial.Events, ref.Events)
	}

	var results [2]*Result
	var runs sync.WaitGroup
	for i := range results {
		runs.Add(1)
		go func(i int) {
			defer runs.Done()
			var err error
			if results[i], err = s.Run(context.Background()); err != nil {
				t.Error(err)
			}
		}(i)
	}
	runs.Wait()
	close(stopPeek)
	wg.Wait()
	if t.Failed() {
		return
	}
	if results[0] != results[1] {
		t.Errorf("concurrent Runs returned different Results %p and %p, want the one cached", results[0], results[1])
	}
	res := results[0]
	if res.Abort != AbortDrained || res.Events != ref.Events {
		t.Errorf("resumed run = {Abort: %v, Events: %d}, want drained after %d", res.Abort, res.Events, ref.Events)
	}
	trace, csv := dumpRun(t, res)
	if trace != refTrace {
		t.Errorf("trace diverges from an uninterrupted run:\n%s", firstDiff(refTrace, trace))
	}
	if !bytes.Equal(csv, refCSV) {
		t.Errorf("jobs CSV diverges from an uninterrupted run")
	}
	if _, err := s.Result(); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := reg.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(prom.String(), "\nelastisim_sessions_finished_total{"); n != 1 {
		t.Errorf("%d elastisim_sessions_finished_total series, want 1:\n%s", n, prom.String())
	}
	if got := reg.Counter(`elastisim_sessions_finished_total{reason="drained"}`).Value(); got != 1 {
		t.Errorf("sessions finished = %d, want 1", got)
	}
}

// TestSessionCancelLandsWithinOneSlice pins how late a cancel is noticed:
// Run polls its context between slices of sliceEvents events, so a run
// cancelled during event E stops at the end of the slice holding E.
func TestSessionCancelLandsWithinOneSlice(t *testing.T) {
	const at = 40
	e := eventsAtInvocation(t, at)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := equivalenceConfig(t, Options{})
	cfg.Algorithm = &hookAlgo{Algorithm: cfg.Algorithm, at: at, hook: cancel}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	partial, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) || partial.Abort != AbortCancelled {
		t.Fatalf("Run = (%v, %v), want cancelled", partial.Abort, err)
	}
	want := (e + sliceEvents - 1) / sliceEvents * sliceEvents
	if partial.Events != want {
		t.Errorf("cancelled during event %d, stopped after %d events, want %d (the end of that slice)", e, partial.Events, want)
	}
}

// TestSessionRunUntilCancelledKeepsClock pins that a RunUntil stopped by
// its context has not reached its bound, so the clock stays at the last
// fired event; resuming to the same bound finishes the slice's work and
// then moves the clock to the bound.
func TestSessionRunUntilCancelledKeepsClock(t *testing.T) {
	const bound = 5000.0
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg := equivalenceConfig(t, Options{})
	cfg.Algorithm = &hookAlgo{Algorithm: cfg.Algorithm, at: 3, hook: cancel}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reason, err := s.RunUntil(ctx, bound)
	if !errors.Is(err, context.Canceled) || reason != AbortCancelled {
		t.Fatalf("RunUntil = (%v, %v), want cancelled", reason, err)
	}
	p := s.Peek()
	if p.Events != sliceEvents || p.Now >= bound {
		t.Errorf("cancelled RunUntil left {Events: %d, Now: %g}, want %d events and the clock before %g", p.Events, p.Now, sliceEvents, bound)
	}
	if reason, err := s.RunUntil(context.Background(), bound); err != nil || reason != AbortHorizon {
		t.Fatalf("resumed RunUntil = (%v, %v), want (horizon, nil)", reason, err)
	}
	if now := s.Now(); now != bound {
		t.Errorf("after the resumed RunUntil the clock is %g, want %g", now, bound)
	}
}
