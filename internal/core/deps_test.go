package core

import (
	"testing"

	"repro/internal/job"
	"repro/internal/sched"
)

func TestDependencyChainSerializes(t *testing.T) {
	// Three 1-node 10 s jobs with a -> b -> c dependencies on an empty
	// 8-node machine: they must run strictly back to back despite free
	// nodes.
	mk := func(id int, deps ...job.ID) *job.Job {
		j := computeJob(id, 1, 1e10) // 10 s on 1 node
		j.Dependencies = deps
		return j
	}
	jobs := []*job.Job{mk(0), mk(1, 0), mk(2, 1)}
	var log []TraceEvent
	rec, _ := runSim(t, testPlatform(8), jobs, &sched.FCFS{}, Options{Trace: collect(&log)})
	wantClose(t, "a start", record(rec, 0).Start, 0)
	wantClose(t, "b start", record(rec, 1).Start, 10)
	wantClose(t, "c start", record(rec, 2).Start, 20)
	held, released := 0, 0
	for _, ev := range log {
		switch ev.Kind {
		case EvHeld:
			held++
		case EvReleased:
			released++
		}
	}
	if held != 2 || released != 2 {
		t.Errorf("held=%d released=%d, want 2/2", held, released)
	}
}

func TestDependencyDiamond(t *testing.T) {
	// a -> (b, c) -> d: d starts only after BOTH b and c finish.
	a := computeJob(0, 1, 1e10) // 10 s
	b := computeJob(1, 1, 1e10) // 10 s
	c := computeJob(2, 1, 2e10) // 20 s (the straggler)
	d := computeJob(3, 1, 1e10)
	b.Dependencies = []job.ID{0}
	c.Dependencies = []job.ID{0}
	d.Dependencies = []job.ID{1, 2}
	rec, _ := runSim(t, testPlatform(8), []*job.Job{a, b, c, d}, &sched.FCFS{}, Options{})
	wantClose(t, "b start", record(rec, 1).Start, 10)
	wantClose(t, "c start", record(rec, 2).Start, 10)
	wantClose(t, "d start", record(rec, 3).Start, 30) // after c at t=30
}

func TestDependencyOnAlreadyFinishedJob(t *testing.T) {
	// The dependency finishes long before the dependent submits: no hold.
	a := computeJob(0, 1, 1e9) // 1 s
	b := computeJob(1, 1, 1e9)
	b.SubmitTime = 100
	b.Dependencies = []job.ID{0}
	rec, _ := runSim(t, testPlatform(2), []*job.Job{a, b}, &sched.FCFS{}, Options{})
	wantClose(t, "b start", record(rec, 1).Start, 100)
}

func TestDependencySatisfiedByKill(t *testing.T) {
	// afterany: a walltime-killed dependency still releases the dependent.
	a := computeJob(0, 1, 1e12) // would run 1000 s
	a.WallTimeLimit = 50
	b := computeJob(1, 1, 1e9)
	b.Dependencies = []job.ID{0}
	rec, _ := runSim(t, testPlatform(2), []*job.Job{a, b}, &sched.FCFS{}, Options{})
	if !record(rec, 0).Killed {
		t.Fatal("dependency not killed")
	}
	wantClose(t, "b start", record(rec, 1).Start, 50)
}

func TestHeldJobsInvisibleToScheduler(t *testing.T) {
	// While held, a job must not appear in the scheduler's pending list.
	var sawHeldJob bool
	spy := algoFunc(func(inv *sched.Invocation) []sched.Decision {
		for _, v := range inv.Pending {
			if v.ID == 1 && inv.Now < 10 {
				sawHeldJob = true
			}
		}
		return (&sched.FCFS{}).Schedule(inv)
	})
	a := computeJob(0, 1, 1e10) // 10 s
	b := computeJob(1, 1, 1e9)
	b.Dependencies = []job.ID{0}
	runSim(t, testPlatform(2), []*job.Job{a, b}, spy, Options{})
	if sawHeldJob {
		t.Error("held job leaked into the pending queue")
	}
}
