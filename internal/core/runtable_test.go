package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// advanceTo fires every event at or before t.
func advanceTo(e *Engine, t float64) { e.Advance(t, math.MaxInt) }

// TestDecisionsOnFinishedJobRejected kills an evolving job with an
// outstanding request and, in the same invocation, answers that request
// (or names the job in any other decision). Every decision after the kill
// must be rejected as naming a finished job: the done run must not take a
// grant, trace a denial or count as applied.
func TestDecisionsOnFinishedJobRejected(t *testing.T) {
	for _, after := range []sched.Decision{
		{Kind: sched.DecisionGrant, Job: 0, NumNodes: 8},
		{Kind: sched.DecisionDeny, Job: 0},
		sched.Resize(0, 4),
		sched.Start(0, 2),
		{Kind: sched.DecisionKill, Job: 0},
	} {
		t.Run(after.Kind.String(), func(t *testing.T) {
			j := &job.Job{
				ID: 0, Type: job.Evolving,
				NumNodesMin: 2, NumNodesMax: 8, NumNodes: 2,
				App: &job.Application{Phases: []job.Phase{{
					Iterations: 3, SchedulingPoint: true,
					Tasks: []job.Task{
						{Kind: job.TaskEvolvingRequest, Model: job.MustExprModel("8")},
						{Kind: job.TaskCompute, Model: job.MustExprModel("2e10 / num_nodes")},
					},
				}}},
			}
			algo := algoFunc(func(inv *sched.Invocation) []sched.Decision {
				for _, v := range inv.Running {
					if v.EvolvingRequest != 0 {
						return []sched.Decision{{Kind: sched.DecisionKill, Job: v.ID}, after}
					}
				}
				return (&sched.FCFS{}).Schedule(inv)
			})
			rec, e := runSim(t, testPlatform(8), []*job.Job{j}, algo, Options{Trace: true})
			if r := record(rec, 0); r.Status != metrics.StatusKilledScheduler || r.PeakNodes != 2 {
				t.Errorf("job ended %q at peak %d nodes, want killed by the scheduler on 2", r.Status, r.PeakNodes)
			}
			// Applied: the start at 0 and the kill, nothing after it.
			byKind := e.TelemetrySnapshot().Scheduler.ByKind
			if len(byKind) != 2 || byKind[sched.DecisionStart.String()] != 1 || byKind[sched.DecisionKill.String()] != 1 {
				t.Errorf("applied %v, want one start and one kill", byKind)
			}
			if e.decisionsRejected != 1 || len(e.Warnings()) != 1 || !strings.Contains(e.Warnings()[0], "job job0 already finished") {
				t.Errorf("%d rejected, warnings %q; want the %s rejected as naming a finished job", e.decisionsRejected, e.Warnings(), after.Kind)
			}
			for _, ev := range e.Trace() {
				if ev.Kind == EvDenied || ev.Kind == EvGranted {
					t.Errorf("trace has %s for the killed job", ev.Kind)
				}
			}
		})
	}
}

// TestRecycledRunIsolation checks that a released run slot carries
// nothing of its last job into the next. A job killed while held stays on
// its dependency's dependents list, so its slot must never be released:
// when the dependency finishes, the slot's occupant (had it been reused)
// would lose a dependency it still waits on. And a job killed at a
// scheduling point gives its slot back while its resume event is still
// queued, so the resume must not touch whichever job occupies the slot
// next. Submissions run before scheduler invocations at a timestamp, so no
// engine path reuses the slot before that resume fires; the last subtest
// puts an occupant there by hand to check the guard itself.
func TestRecycledRunIsolation(t *testing.T) {
	// IDs from 0 index the runs densely; IDs from 5000 are too sparse for
	// that (job.Workload.CompactIDs), so the done set is the map's.
	for _, base := range []job.ID{0, 5000} {
		t.Run(fmt.Sprintf("held kill from %d", base), func(t *testing.T) {
			testHeldKillIsolation(t, base)
		})
	}

	t.Run("kill at scheduling point", func(t *testing.T) {
		m := malleableJob(0, 2, 2, 2, 3, 20*speed) // iterations of 10 s
		p := computeJob(1, 1, 5*speed)             // submitted with the kill
		p.SubmitTime = 10
		q := malleableJob(2, 2, 2, 2, 2, 20*speed) // takes m's slot
		q.SubmitTime = 12
		algo := algoFunc(func(inv *sched.Invocation) []sched.Decision {
			for _, v := range inv.Running {
				if v.ID == 0 && v.AtSchedulingPoint {
					return append([]sched.Decision{{Kind: sched.DecisionKill, Job: 0}}, (&sched.FCFS{}).Schedule(inv)...)
				}
			}
			return (&sched.FCFS{}).Schedule(inv)
		})
		w := &job.Workload{Jobs: []*job.Job{m, p, q}}
		e, err := New(testPlatform(4), w, algo, Options{Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		advanceTo(e, 5)
		mSlot := e.runs.get(0)
		advanceTo(e, 12)
		if e.runs.get(0) != nil || !e.runs.finished(0) {
			t.Fatal("job 0 killed at its scheduling point kept its run")
		}
		if e.runs.get(2) != mSlot {
			t.Fatal("job 2 did not reuse job 0's released slot")
		}
		advanceTo(e, math.Inf(1))
		rec, err := e.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if r := record(rec, 0); r.Status != metrics.StatusKilledScheduler || r.End != 10 || r.NodeSeconds != 20 {
			t.Errorf("job 0 ended %q at %v after %v node-seconds, want killed at 10 after 20", r.Status, r.End, r.NodeSeconds)
		}
		wantClose(t, "job 1 end", record(rec, 1).End, 15)
		if r := record(rec, 2); r.Start != 12 || r.End != 32 || r.Reconfigs != 0 {
			t.Errorf("job 2 ran %v-%v with %d reconfigurations, want 12-32 with none", r.Start, r.End, r.Reconfigs)
		}
		for _, ev := range e.Trace() {
			if ev.Job == 0 && ev.T > 10 {
				t.Errorf("job 0 traced %s at %v after its kill", ev.Kind, ev.T)
			}
		}
		if len(e.Warnings()) != 0 {
			t.Errorf("warnings: %v", e.Warnings())
		}
	})
	t.Run("stale resume", func(t *testing.T) {
		m := malleableJob(0, 2, 2, 2, 3, 20*speed)
		q := malleableJob(1, 2, 2, 2, 3, 20*speed)
		q.SubmitTime = 50
		algo := algoFunc(func(inv *sched.Invocation) []sched.Decision {
			for _, v := range inv.Running {
				if v.AtSchedulingPoint {
					return []sched.Decision{{Kind: sched.DecisionKill, Job: v.ID}}
				}
			}
			return (&sched.FCFS{}).Schedule(inv)
		})
		e, err := New(testPlatform(4), &job.Workload{Jobs: []*job.Job{m, q}}, algo, Options{})
		if err != nil {
			t.Fatal(err)
		}
		advanceTo(e, 5)
		mSlot := e.runs.get(0)
		for e.runs.get(0) != nil {
			if e.Advance(10, 1) == 0 {
				t.Fatal("job 0 was not killed at its scheduling point at 10")
			}
		}
		// The kill released the slot; job 0's resume is still queued at 10.
		occ := e.runs.alloc(q)
		if occ != mSlot {
			t.Fatal("the released slot was not reused")
		}
		occ.setState(stateAtSchedPoint)
		advanceTo(e, 10)
		if occ.state != stateAtSchedPoint || occ.view.Job.ID != 1 {
			t.Errorf("job 0's resume moved the slot's next occupant to %s", occ.state)
		}
	})
}

// testHeldKillIsolation runs TestRecycledRunIsolation's held-kill case
// with job IDs from base: a finishes at 100 and y at 200; h, held on a, is
// killed at 0; s runs from 1 to 2 and gives its slot back; z, held on y
// from 5, takes that slot and must stay held on y until 200.
func testHeldKillIsolation(t *testing.T, base job.ID) {
	mk := func(k int, seconds float64, submit float64, deps ...job.ID) *job.Job {
		j := computeJob(int(base)+k, 1, seconds*speed)
		j.SubmitTime = submit
		for _, d := range deps {
			j.Dependencies = append(j.Dependencies, base+d)
		}
		return j
	}
	a, y, h, s, z := mk(0, 100, 0), mk(1, 200, 0), mk(2, 1, 0, 0), mk(3, 1, 1), mk(4, 1, 5, 1)
	killed := false
	algo := algoFunc(func(inv *sched.Invocation) []sched.Decision {
		out := (&sched.FCFS{}).Schedule(inv)
		if !killed {
			killed = true
			out = append(out, sched.Decision{Kind: sched.DecisionKill, Job: h.ID})
		}
		return out
	})
	e, err := New(testPlatform(4), &job.Workload{Jobs: []*job.Job{a, y, h, s, z}}, algo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dense := e.runs.dense != nil; dense != (base == 0) {
		t.Fatalf("IDs from %d indexed densely: %t", base, dense)
	}
	advanceTo(e, 1.5)
	sSlot := e.runs.get(s.ID)
	advanceTo(e, 5.5)
	zr := e.runs.get(z.ID)
	if zr == nil || zr != sSlot {
		t.Fatalf("z did not reuse s's released slot")
	}
	if hr := e.runs.get(h.ID); hr == nil || hr.state != stateDone {
		t.Errorf("the job killed while held lost its run")
	}
	advanceTo(e, 100.5)
	if !e.runs.finished(a.ID) || zr.state != stateHeld || zr.depsLeft != 1 {
		t.Fatalf("after a finished, z is %s with %d dependencies left, want held on 1", zr.state, zr.depsLeft)
	}
	advanceTo(e, math.Inf(1))
	rec, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	wantClose(t, "z start", record(rec, z.ID).Start, 200)
	if r := record(rec, h.ID); r.Status != metrics.StatusKilledScheduler || r.Start >= 0 {
		t.Errorf("held job ended %q with start %v, want killed before starting", r.Status, r.Start)
	}
	if len(e.Warnings()) != 0 {
		t.Errorf("warnings: %v", e.Warnings())
	}
}
