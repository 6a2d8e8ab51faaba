package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// Engine-level property tests: random workloads are pushed through every
// algorithm and the run is checked against system invariants that must
// hold regardless of scheduling policy:
//
//  1. every job finishes exactly once and all nodes are released;
//  2. the busy-node timeline never exceeds the machine or goes negative;
//  3. allocation sizes always stay within each job's [min,max] bounds;
//  4. reconfigurations happen only for adaptive job types;
//  5. identical runs are bit-identical (determinism);
//  6. walltime kills happen exactly at the limit, never after.

func randomWorkload(t *testing.T, seed uint64, count int) *job.Workload {
	t.Helper()
	w, err := job.Generate(job.Config{
		Seed:  seed,
		Count: count,
		Arrival: job.Arrival{
			Kind: job.ArrivalPoisson,
			Rate: 0.02,
		},
		Nodes:        [2]int{1, 8},
		MachineNodes: 16,
		NodeSpeed:    100e9,
		TypeShares: map[job.Type]float64{
			job.Rigid: 1, job.Moldable: 1, job.Malleable: 1, job.Evolving: 1,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func allAlgorithms() []sched.Algorithm {
	return []sched.Algorithm{
		&sched.FCFS{},
		&sched.SJF{},
		&sched.EASY{},
		&sched.Conservative{},
		&sched.Adaptive{},
	}
}

func TestInvariantsAcrossAlgorithms(t *testing.T) {
	check := func(seed uint64) bool {
		w := randomWorkload(t, seed, 25)
		for _, algo := range allAlgorithms() {
			w := randomWorkload(t, seed, 25) // fresh copy per run
			e, err := New(testPlatform(16), w, algo, Options{})
			if err != nil {
				t.Logf("seed %d %s: New: %v", seed, algo.Name(), err)
				return false
			}
			rec, err := e.Run()
			if err != nil {
				t.Logf("seed %d %s: Run: %v", seed, algo.Name(), err)
				return false
			}
			s := rec.Summary()
			// (1) every job finished.
			if s.Completed+s.Killed != len(w.Jobs) {
				t.Logf("seed %d %s: finished %d/%d", seed, algo.Name(), s.Completed+s.Killed, len(w.Jobs))
				return false
			}
			// All nodes free at the end.
			busy := rec.BusyTimeline()
			if pts := busy.Points(); len(pts) > 0 && pts[len(pts)-1].V != 0 {
				t.Logf("seed %d %s: %v nodes busy at end", seed, algo.Name(), pts[len(pts)-1].V)
				return false
			}
			// (2) busy-node bounds over the whole run.
			for _, p := range busy.Points() {
				if p.V < 0 || p.V > 16 {
					t.Logf("seed %d %s: busy=%v at t=%v", seed, algo.Name(), p.V, p.T)
					return false
				}
			}
			// (3)+(4) per-job allocation bounds and reconfiguration rules.
			for _, r := range rec.Records() {
				j := w.Jobs[r.ID]
				if r.Start < 0 {
					continue
				}
				if r.InitialNodes < j.MinNodes() || r.InitialNodes > j.MaxNodes() {
					t.Logf("seed %d %s: job %d started at %d outside [%d,%d]",
						seed, algo.Name(), r.ID, r.InitialNodes, j.MinNodes(), j.MaxNodes())
					return false
				}
				if r.PeakNodes > j.MaxNodes() || r.FinalNodes < j.MinNodes() && !r.Killed {
					t.Logf("seed %d %s: job %d allocation out of bounds (peak %d, final %d)",
						seed, algo.Name(), r.ID, r.PeakNodes, r.FinalNodes)
					return false
				}
				if r.Reconfigs > 0 && !j.Type.Adaptive() {
					t.Logf("seed %d %s: non-adaptive job %d reconfigured", seed, algo.Name(), r.ID)
					return false
				}
				// (6) kills exactly at the walltime limit.
				if r.Killed && j.WallTimeLimit > 0 {
					if diff := r.Runtime() - j.WallTimeLimit; diff > 1e-9 || diff < -1e-6 {
						t.Logf("seed %d %s: job %d killed at runtime %v, limit %v",
							seed, algo.Name(), r.ID, r.Runtime(), j.WallTimeLimit)
						return false
					}
				}
			}
			_ = w
		}
		_ = w
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

func TestDeterminismAcrossAlgorithms(t *testing.T) {
	for _, algo := range allAlgorithms() {
		run := func() string {
			w := randomWorkload(t, 99, 30)
			var a sched.Algorithm
			switch algo.(type) {
			case *sched.FCFS:
				a = &sched.FCFS{}
			case *sched.SJF:
				a = &sched.SJF{}
			case *sched.EASY:
				a = &sched.EASY{}
			case *sched.Conservative:
				a = &sched.Conservative{}
			case *sched.Adaptive:
				a = &sched.Adaptive{}
			}
			e, err := New(testPlatform(16), w, a, Options{})
			if err != nil {
				t.Fatal(err)
			}
			rec, err := e.Run()
			if err != nil {
				t.Fatal(err)
			}
			// Fingerprint: every job's start/end/nodes.
			out := ""
			for _, r := range rec.Records() {
				out += fingerprint(r)
			}
			return out
		}
		if a, b := run(), run(); a != b {
			t.Errorf("%s: two identical runs diverged", algo.Name())
		}
	}
}

func fingerprint(r any) string {
	return fmt.Sprintf("%+v;", r)
}

func TestSchedulingPointCountMatchesTrace(t *testing.T) {
	// The engine must visit exactly the scheduling points the application
	// declares (iterations-1 interior points + 1 at each phase boundary
	// following a scheduling-point phase, except at job end).
	j := malleableJob(0, 2, 8, 2, 5, 1e10)
	var log []TraceEvent
	runSim(t, testPlatform(8), []*job.Job{j}, &sched.FCFS{}, Options{Trace: collect(&log)})
	points := 0
	for _, ev := range log {
		if ev.Kind == EvSchedulingPoint {
			points++
		}
	}
	// 5 iterations, single phase: scheduling points after iterations
	// 1..4 (the phase ends after the 5th, job completes).
	if points != 4 {
		t.Errorf("scheduling points %d, want 4", points)
	}
}

func TestNoEventDrivenNoIntervalRejected(t *testing.T) {
	// Disabling event-driven invocation without a periodic interval can
	// never start anything: New must refuse it, naming both options,
	// instead of simulating into a "deadlock" that blames the algorithm.
	w := &job.Workload{Jobs: []*job.Job{computeJob(0, 2, 1e10)}}
	for _, interval := range []float64{0, -1, math.NaN()} {
		_, err := New(testPlatform(4), w, &sched.FCFS{}, Options{DisableEventDriven: true, InvocationInterval: interval})
		if err == nil || !strings.Contains(err.Error(), "disable_event_driven") || !strings.Contains(err.Error(), "invocation_interval") {
			t.Errorf("interval %v: err = %v, want a rejection naming both options", interval, err)
		}
	}
}

func TestHorizonStopsEarly(t *testing.T) {
	j := computeJob(0, 2, 1e12) // 500 s
	w := &job.Workload{Jobs: []*job.Job{j}}
	e, err := New(testPlatform(4), w, &sched.FCFS{}, Options{Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	if e.Now() > 100 {
		t.Errorf("simulation ran past the horizon: %v", e.Now())
	}
	if rec.Summary().Completed != 0 {
		t.Error("job completed despite horizon")
	}
}

func TestKillDecisionOnPendingAndRunning(t *testing.T) {
	// An algorithm that kills everything: both pending and running paths.
	killAll := algoFunc(func(inv *sched.Invocation) []sched.Decision {
		var out []sched.Decision
		for i, v := range inv.Pending {
			if i == 0 {
				out = append(out, sched.Start(v.ID, v.Job.NumNodes))
			} else {
				out = append(out, sched.Decision{Kind: sched.DecisionKill, Job: v.ID})
			}
		}
		for _, v := range inv.Running {
			if inv.Now >= 10 {
				out = append(out, sched.Decision{Kind: sched.DecisionKill, Job: v.ID})
			}
		}
		return out
	})
	a := computeJob(0, 2, 1e13) // long
	b := computeJob(1, 2, 1e10)
	b.SubmitTime = 0
	rec, e := runSim(t, testPlatform(4), []*job.Job{a, b}, killAll, Options{InvocationInterval: 10})
	s := rec.Summary()
	if s.Killed != 2 {
		t.Errorf("killed %d, want 2: %+v", s.Killed, s)
	}
	if len(e.Warnings()) > 0 {
		t.Errorf("warnings: %v", e.Warnings())
	}
	// The pending kill must not have started.
	if record(rec, 1).Start >= 0 {
		t.Error("killed-pending job has a start time")
	}
}

// TestTriggersDuringApplyNotElided pins that a trigger raised while an
// invocation's decisions are applied earns a re-invocation at the same
// timestamp. A kill frees nodes or releases a dependent only once the
// algorithm has returned, so the snapshot it decided on could not show
// them; eliding the follow-up would leave them idle until the next event.
func TestTriggersDuringApplyNotElided(t *testing.T) {
	t.Run("kill at scheduling point frees nodes", func(t *testing.T) {
		m := malleableJob(0, 4, 4, 4, 3, 40*speed) // iterations of 10 s on 4 nodes
		r := computeJob(1, 2, 10*speed)
		r.SubmitTime = 5
		algo := algoFunc(func(inv *sched.Invocation) []sched.Decision {
			out := (&sched.FCFS{}).Schedule(inv)
			for _, v := range inv.Running {
				if v.ID == 0 && v.AtSchedulingPoint {
					out = append(out, sched.Decision{Kind: sched.DecisionKill, Job: 0})
				}
			}
			return out
		})
		rec, e := runSim(t, testPlatform(4), []*job.Job{m, r}, algo, Options{})
		if got := record(rec, 0); got.Status != metrics.StatusKilledScheduler || got.End != 10 {
			t.Errorf("job 0 ended %q at %v, want killed at 10", got.Status, got.End)
		}
		wantClose(t, "job 1 start", record(rec, 1).Start, 10)
		if len(e.Warnings()) != 0 {
			t.Errorf("warnings: %v", e.Warnings())
		}
	})
	t.Run("kill of a pending job releases its dependent", func(t *testing.T) {
		a := computeJob(0, 2, 200*speed) // holds 2 of 4 nodes until 100
		k := computeJob(1, 4, 4*speed)   // blocked behind a, killed at 10
		d := computeJob(2, 2, 2*speed)   // held on k
		d.Dependencies = []job.ID{1}
		s := computeJob(3, 2, 2*speed)
		s.SubmitTime = 10
		algo := algoFunc(func(inv *sched.Invocation) []sched.Decision {
			out := (&sched.FCFS{}).Schedule(inv)
			for _, v := range inv.Pending {
				if v.ID == 1 && inv.Now >= 10 {
					out = append(out, sched.Decision{Kind: sched.DecisionKill, Job: 1})
				}
			}
			return out
		})
		rec, e := runSim(t, testPlatform(4), []*job.Job{a, k, d, s}, algo, Options{})
		if got := record(rec, 1); got.Status != metrics.StatusKilledScheduler || got.Start >= 0 {
			t.Errorf("job 1 ended %q with start %v, want killed before starting", got.Status, got.Start)
		}
		wantClose(t, "submitted job start", record(rec, 3).Start, 10)
		wantClose(t, "dependent start", record(rec, 2).Start, 11)
		if len(e.Warnings()) != 0 {
			t.Errorf("warnings: %v", e.Warnings())
		}
	})
}

// algoFunc adapts a function to sched.Algorithm.
type algoFunc func(inv *sched.Invocation) []sched.Decision

func (algoFunc) Name() string                                      { return "func" }
func (f algoFunc) Schedule(inv *sched.Invocation) []sched.Decision { return f(inv) }
