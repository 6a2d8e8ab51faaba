package elastisim

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/job"
)

// TestSessionRunMatchesRun pins the compatibility contract: Run(cfg) and
// NewSession(cfg)+Run(ctx) must produce byte-identical outputs — trace at
// exact float precision, per-job CSV, summary — on the mixed workload
// with failures and telemetry counters.
func TestSessionRunMatchesRun(t *testing.T) {
	ref, refTrace, refCSV := equivalenceRunOpts(t, Options{})

	var log []TraceEvent
	s, err := NewSession(equivalenceConfig(t, Options{Trace: collect(&log)}))
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Abort != AbortDrained {
		t.Errorf("session run aborted with %v, want drained", res.Abort)
	}
	trace, csv := dumpRun(t, log, res)
	if trace != refTrace {
		t.Errorf("session trace diverges from Run(cfg):\n%s", firstDiff(refTrace, trace))
	}
	if !bytes.Equal(csv, refCSV) {
		t.Errorf("session jobs CSV diverges from Run(cfg)")
	}
	if rs, ss := fmt.Sprintf("%+v", ref.Summary), fmt.Sprintf("%+v", res.Summary); rs != ss {
		t.Errorf("summaries diverge:\nRun:     %s\nSession: %s", rs, ss)
	}
	if ref.Events != res.Events || ref.Invocations != res.Invocations || ref.Solves != res.Solves {
		t.Errorf("counters diverge: Run events=%d inv=%d solves=%d, Session events=%d inv=%d solves=%d",
			ref.Events, ref.Invocations, ref.Solves, res.Events, res.Invocations, res.Solves)
	}

	// Run on a completed session returns the cached result, not an error.
	again, err := s.Run(context.Background())
	if err != nil || again != res {
		t.Errorf("second Run = (%p, %v), want cached (%p, nil)", again, err, res)
	}
}

// TestSessionSlicedExecutionEquivalence pins that execution slicing is
// invisible: driving the same simulation by Step batches or by RunUntil
// increments yields results bit-identical to one uninterrupted Run.
func TestSessionSlicedExecutionEquivalence(t *testing.T) {
	_, refTrace, refCSV := equivalenceRunOpts(t, Options{})

	t.Run("step", func(t *testing.T) {
		var log []TraceEvent
		s, err := NewSession(equivalenceConfig(t, Options{Trace: collect(&log)}))
		if err != nil {
			t.Fatal(err)
		}
		// A deliberately awkward batch size so slices land mid-cascade.
		for {
			n, err := s.Step(97)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Abort != AbortDrained {
			t.Errorf("stepped session aborted with %v, want drained", res.Abort)
		}
		trace, csv := dumpRun(t, log, res)
		if trace != refTrace {
			t.Errorf("stepped trace diverges:\n%s", firstDiff(refTrace, trace))
		}
		if !bytes.Equal(csv, refCSV) {
			t.Errorf("stepped jobs CSV diverges")
		}
	})

	t.Run("rununtil", func(t *testing.T) {
		var log []TraceEvent
		s, err := NewSession(equivalenceConfig(t, Options{Trace: collect(&log)}))
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for bound := 333.0; ; bound += 333.0 {
			reason, err := s.RunUntil(ctx, bound)
			if err != nil {
				t.Fatal(err)
			}
			if reason == AbortDrained {
				break
			}
			if reason != AbortHorizon {
				t.Fatalf("RunUntil(%g) = %v, want horizon or drained", bound, reason)
			}
			if now := s.Now(); now != bound {
				t.Fatalf("after RunUntil(%g) clock is %g", bound, now)
			}
		}
		res, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		trace, csv := dumpRun(t, log, res)
		if trace != refTrace {
			t.Errorf("RunUntil trace diverges:\n%s", firstDiff(refTrace, trace))
		}
		if !bytes.Equal(csv, refCSV) {
			t.Errorf("RunUntil jobs CSV diverges")
		}
	})
}

// TestSessionCancellation pins the cancellation contract: a cancelled Run
// returns the partial metrics accumulated so far plus ctx.Err(), and the
// session resumes to a result bit-identical to an uninterrupted run.
func TestSessionCancellation(t *testing.T) {
	ref, refTrace, refCSV := equivalenceRunOpts(t, Options{})

	var log []TraceEvent
	s, err := NewSession(equivalenceConfig(t, Options{Trace: collect(&log)}))
	if err != nil {
		t.Fatal(err)
	}
	// Advance deterministically into the middle of the simulation, then
	// ask for a full run under an already-cancelled context.
	if _, err := s.Step(int(ref.Events / 2)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	partial, err := s.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run error = %v, want context.Canceled", err)
	}
	if partial == nil {
		t.Fatal("cancelled Run returned no partial result")
	}
	if partial.Abort != AbortCancelled {
		t.Errorf("partial.Abort = %v, want cancelled", partial.Abort)
	}
	if partial.Events == 0 || partial.Events >= ref.Events {
		t.Errorf("partial events = %d, want in (0, %d)", partial.Events, ref.Events)
	}
	finished := 0
	for _, r := range partial.Records {
		if r.End >= 0 {
			finished++
		}
	}
	if finished >= len(ref.Records) {
		t.Errorf("partial run finished all %d jobs; cancellation was not mid-run", finished)
	}

	// Deadline expiry maps to AbortDeadline.
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	partial2, err := s.Run(dctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline Run error = %v, want context.DeadlineExceeded", err)
	}
	if partial2.Abort != AbortDeadline {
		t.Errorf("partial2.Abort = %v, want deadline", partial2.Abort)
	}

	// Resume to completion: byte-identical to the uninterrupted run.
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	trace, csv := dumpRun(t, log, res)
	if trace != refTrace {
		t.Errorf("resumed trace diverges:\n%s", firstDiff(refTrace, trace))
	}
	if !bytes.Equal(csv, refCSV) {
		t.Errorf("resumed jobs CSV diverges")
	}
}

// TestSessionPeek exercises the live snapshot across the lifecycle.
func TestSessionPeek(t *testing.T) {
	s, err := NewSession(equivalenceConfig(t, Options{}))
	if err != nil {
		t.Fatal(err)
	}
	p := s.Peek()
	if p.Events != 0 || p.Done || p.Completed != 0 {
		t.Errorf("pre-run peek = %+v, want zeroed and not done", p)
	}
	if p.Total != 60 {
		t.Errorf("peek total = %d, want 60", p.Total)
	}
	if reason, err := s.RunUntil(context.Background(), 2000); err != nil || reason != AbortHorizon {
		t.Fatalf("RunUntil = (%v, %v), want (horizon, nil)", reason, err)
	}
	p = s.Peek()
	if p.Now != 2000 {
		t.Errorf("mid-run peek now = %g, want 2000", p.Now)
	}
	if p.Events == 0 || p.Done {
		t.Errorf("mid-run peek = %+v, want progress and not done", p)
	}
	if p.Queued+p.Running == 0 && p.Completed == 0 {
		t.Errorf("mid-run peek shows no jobs anywhere: %+v", p)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	p = s.Peek()
	if !p.Done || p.Completed != p.Total {
		t.Errorf("post-run peek = %+v, want done with all jobs completed", p)
	}
	if p.Events != res.Events {
		t.Errorf("post-run peek events = %d, result says %d", p.Events, res.Events)
	}
}

// panicAlgo trips an artificial engine-invariant panic on the first
// scheduler invocation.
type panicAlgo struct{}

func (panicAlgo) Name() string { return "panic" }
func (panicAlgo) Schedule(inv *Invocation) []Decision {
	panic("scheduler invariant violated (test)")
}

// TestSessionInternalError pins panic recovery at the API boundary: an
// internal panic surfaces as *InternalError with context attached, never
// as a crash, and poisons the session.
func TestSessionInternalError(t *testing.T) {
	cfg := equivalenceConfig(t, Options{})
	cfg.Algorithm = panicAlgo{}
	s, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Run(context.Background())
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("Run error = %v (%T), want *InternalError", err, err)
	}
	if ie.Msg != "scheduler invariant violated (test)" {
		t.Errorf("InternalError.Msg = %q", ie.Msg)
	}
	if len(ie.Stack) == 0 {
		t.Error("InternalError carries no stack")
	}
	// Poisoned: every subsequent call returns the same error.
	if _, err := s.Step(1); !errors.As(err, &ie) {
		t.Errorf("Step after internal error = %v, want poisoned", err)
	}
	if _, err := s.Result(); !errors.As(err, &ie) {
		t.Errorf("Result after internal error = %v, want poisoned", err)
	}
	if _, err := s.Run(context.Background()); !errors.As(err, &ie) {
		t.Errorf("Run after internal error = %v, want poisoned", err)
	}

	// Run(cfg) inherits the recovery: error, not crash.
	if _, err := Run(cfg); err == nil {
		t.Error("Run with panicking algorithm returned nil error")
	}
}

// TestConcurrentSessions is the -race stress pin for the shared-state
// audit: many independent sessions with mixed workloads running
// concurrently must neither race nor perturb each other's determinism.
func TestConcurrentSessions(t *testing.T) {
	const sessions = 8
	algos := []func() Algorithm{NewAdaptive, NewEASY, NewFCFS, NewFairShare}

	// Reference results, computed sequentially.
	refs := make([]*Result, sessions)
	for i := 0; i < sessions; i++ {
		res, err := Run(concurrentConfig(t, i, algos[i%len(algos)]()))
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = res
	}

	results := make([]*Result, sessions)
	errs := make([]error, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := NewSession(concurrentConfig(t, i, algos[i%len(algos)]()))
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = s.Run(context.Background())
		}(i)
	}
	wg.Wait()
	for i := 0; i < sessions; i++ {
		if errs[i] != nil {
			t.Fatalf("session %d: %v", i, errs[i])
		}
		if got, want := fmt.Sprintf("%+v", results[i].Summary), fmt.Sprintf("%+v", refs[i].Summary); got != want {
			t.Errorf("session %d summary diverges under concurrency:\nseq:  %s\nconc: %s", i, want, got)
		}
		if results[i].Events != refs[i].Events {
			t.Errorf("session %d events = %d concurrent vs %d sequential", i, results[i].Events, refs[i].Events)
		}
	}
}

// concurrentConfig builds session i's scenario: distinct seeds, sizes,
// and failure models so concurrent sessions exercise different paths.
func concurrentConfig(t *testing.T, i int, algo Algorithm) Config {
	t.Helper()
	wl, err := GenerateWorkload(WorkloadConfig{
		Seed:  uint64(100 + i),
		Count: 25,
		Arrival: job.Arrival{
			Kind: job.ArrivalPoisson, Rate: 0.05,
		},
		Nodes:        [2]int{1, 8},
		MachineNodes: 16,
		NodeSpeed:    100e9,
		TypeShares: map[job.Type]float64{
			job.Rigid: 0.4, job.Moldable: 0.2, job.Malleable: 0.3, job.Evolving: 0.1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Platform:  HomogeneousPlatform(fmt.Sprintf("c%d", i), 16, 100e9, 10e9, 40e9, 40e9),
		Workload:  wl,
		Algorithm: algo,
		Options:   Options{Trace: discardTrace},
	}
	if i%2 == 0 {
		cfg.Failures = &FailureSpec{Model: FailureExponential, Seed: uint64(i + 1), MTBF: 30000, MTTR: 200}
	}
	return cfg
}
