package sched

import (
	"math"
	"testing"

	"repro/internal/job"
)

func TestFirstFitSkipsBlockers(t *testing.T) {
	f := &FirstFit{}
	inv := &Invocation{
		FreeNodes:  10,
		TotalNodes: 16,
		Pending: []*JobView{
			mkPending(0, 12, 0), // too wide
			mkPending(1, 4, 0),
			mkPending(2, 8, 0), // does not fit after job 1
			mkPending(3, 6, 0),
		},
	}
	ds := f.Schedule(inv)
	got := map[job.ID]bool{}
	for _, d := range ds {
		got[d.Job] = true
	}
	if got[0] || got[2] {
		t.Errorf("oversized jobs started: %v", ds)
	}
	if !got[1] || !got[3] {
		t.Errorf("fitting jobs skipped: %v", ds)
	}
}

// TestFirstFitScheduleAllocs: the engine does not keep the decisions past
// the call, so a warmed FirstFit reuses one buffer and allocates nothing.
func TestFirstFitScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	inv := &Invocation{FreeNodes: 64, TotalNodes: 256}
	for i := 0; i < 400; i++ {
		inv.Pending = append(inv.Pending, mkPending(i, 1+i%5, 0))
	}
	f := &FirstFit{}
	if ds := f.Schedule(inv); len(ds) == 0 {
		t.Fatal("nothing started")
	}
	if got := testing.AllocsPerRun(20, func() { f.Schedule(inv) }); got != 0 {
		t.Errorf("Schedule allocates %v times per call, want 0", got)
	}
}

func withUser(v *JobView, user string) *JobView {
	v.Job.User = user
	return v
}

func TestFairShareOrdersByUsage(t *testing.T) {
	f := &FairShare{}
	// First invocation at t=0: alice's job runs on 8 nodes.
	running := mkRunning(0, 8, 0, math.Inf(1))
	running.Job.User = "alice"
	inv0 := &Invocation{
		Now:        0,
		FreeNodes:  8,
		TotalNodes: 16,
		Running:    []*JobView{running},
	}
	f.Schedule(inv0)
	// Second invocation at t=100: alice has 800 node-seconds; bob has 0.
	// Both queue a 8-node job but only one fits: bob must go first.
	aliceJob := withUser(mkPending(1, 8, 100), "alice")
	bobJob := withUser(mkPending(2, 8, 100), "bob")
	inv1 := &Invocation{
		Now:        100,
		FreeNodes:  8,
		TotalNodes: 16,
		Running:    []*JobView{running},
		Pending:    []*JobView{aliceJob, bobJob}, // alice submitted first
	}
	ds := f.Schedule(inv1)
	if len(ds) != 1 || ds[0].Job != 2 {
		t.Errorf("fair share should start bob first: %v", ds)
	}
	if got := f.usage["alice"]; got != 800 {
		t.Errorf("alice usage %v, want 800", got)
	}
	if got := f.usage["bob"]; got != 0 {
		t.Errorf("bob usage %v, want 0", got)
	}
}

func TestFairShareTiesKeepSubmissionOrder(t *testing.T) {
	f := &FairShare{}
	a := withUser(mkPending(0, 4, 10), "x")
	b := withUser(mkPending(1, 4, 10), "y")
	inv := &Invocation{
		Now: 0, FreeNodes: 4, TotalNodes: 8,
		Pending: []*JobView{a, b},
	}
	ds := f.Schedule(inv)
	if len(ds) != 1 || ds[0].Job != 0 {
		t.Errorf("equal usage should preserve order: %v", ds)
	}
}

func TestFairShareBackfills(t *testing.T) {
	f := &FairShare{}
	// Head (8 nodes, heavy user) blocked by a running job ending at 100;
	// a short narrow job from the same user backfills.
	running := mkRunning(0, 6, 0, 100)
	running.Job.User = "alice"
	head := withUser(mkPending(1, 8, 1000), "alice")
	small := withUser(mkPending(2, 2, 50), "alice")
	// Prime usage.
	f.Schedule(&Invocation{Now: 0, Running: []*JobView{running}, FreeNodes: 4, TotalNodes: 10})
	ds := f.Schedule(&Invocation{
		Now: 10, FreeNodes: 4, TotalNodes: 10,
		Running: []*JobView{running},
		Pending: []*JobView{head, small},
	})
	got := map[job.ID]bool{}
	for _, d := range ds {
		got[d.Job] = true
	}
	if got[1] {
		t.Errorf("blocked head started: %v", ds)
	}
	if !got[2] {
		t.Errorf("backfill candidate skipped: %v", ds)
	}
}

func TestFairShareEndToEnd(t *testing.T) {
	// Integration: two users, user "hog" floods the queue first, "meek"
	// submits one job later. Under FCFS meek waits for the whole flood;
	// under fair share meek's job jumps the residual queue.
	mkWorkload := func() []*job.Job {
		var jobs []*job.Job
		for i := 0; i < 6; i++ {
			j := &job.Job{
				ID: job.ID(i), Type: job.Rigid, NumNodes: 4, User: "hog",
				SubmitTime:    0,
				WallTimeLimit: 400,
				Args:          map[string]float64{"flops": 4e11}, // 100 s on 4 nodes
				App: &job.Application{Phases: []job.Phase{{
					Tasks: []job.Task{{Kind: job.TaskCompute, Model: job.MustExprModel("flops / num_nodes")}},
				}}},
			}
			jobs = append(jobs, j)
		}
		meek := &job.Job{
			ID: 6, Type: job.Rigid, NumNodes: 4, User: "meek",
			SubmitTime:    150,
			WallTimeLimit: 400,
			Args:          map[string]float64{"flops": 4e11},
			App: &job.Application{Phases: []job.Phase{{
				Tasks: []job.Task{{Kind: job.TaskCompute, Model: job.MustExprModel("flops / num_nodes")}},
			}}},
		}
		return append(jobs, meek)
	}
	_ = mkWorkload
	// The engine-level comparison lives in internal/core (import cycle);
	// here we verify ordering directly: after the hog consumed usage, the
	// meek job sorts first.
	f := &FairShare{}
	hogRunning := mkRunning(0, 4, 0, 100)
	hogRunning.Job.User = "hog"
	f.Schedule(&Invocation{Now: 0, Running: []*JobView{hogRunning}, FreeNodes: 0, TotalNodes: 4})
	hogPending := withUser(mkPending(1, 4, 400), "hog")
	meekPending := withUser(mkPending(2, 4, 400), "meek")
	ds := f.Schedule(&Invocation{
		Now: 100, FreeNodes: 4, TotalNodes: 4,
		Pending: []*JobView{hogPending, meekPending},
	})
	if len(ds) == 0 || ds[0].Job != 2 {
		t.Errorf("meek user's job should start first: %v", ds)
	}
}
