package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/failure"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sched"
)

// iterJob builds a rigid job running iters iterations of flopsIter flops
// each, optionally with a checkpoint-interval model.
func iterJob(id, nodes, iters int, flopsIter float64, ckpt string) *job.Job {
	j := &job.Job{
		ID: job.ID(id), Type: job.Rigid, NumNodes: nodes,
		Args: map[string]float64{"flops_iter": flopsIter},
		App: &job.Application{Phases: []job.Phase{{
			Iterations: iters,
			Tasks:      []job.Task{{Kind: job.TaskCompute, Model: job.MustExprModel("flops_iter / num_nodes")}},
		}}},
	}
	if ckpt != "" {
		j.CheckpointInterval = job.MustExprModel(ckpt)
	}
	return j
}

// withFailures sets spec's failure model and returns spec.
func withFailures(spec *platform.Spec, fs *failure.Spec) *platform.Spec {
	spec.Failures = fs
	return spec
}

func traceSpec(recovery failure.RecoveryPolicy, outages ...failure.Outage) *failure.Spec {
	return &failure.Spec{Model: failure.ModelTrace, Outages: outages, Recovery: recovery}
}

// A rigid job hit by a node failure is requeued and restarts from its last
// checkpoint: only the interrupted iteration is badput.
func TestNodeFailureRequeueWithCheckpointCredit(t *testing.T) {
	// 10 iterations x 10 s on 2 of 4 nodes, checkpointing every iteration.
	// Node 0 fails at t=35 (mid iteration 3, checkpointed at t=30).
	j := iterJob(0, 2, 10, 2e10, "0")
	plat := withFailures(testPlatform(4), traceSpec("", failure.Outage{Node: 0, Down: 35, Up: 45}))
	rec, _ := runSim(t, plat, []*job.Job{j}, &sched.FCFS{}, Options{})
	r := record(rec, 0)
	if r.Status != metrics.StatusCompleted {
		t.Fatalf("status %q", r.Status)
	}
	if r.Requeues != 1 {
		t.Errorf("requeues = %d", r.Requeues)
	}
	// Restarted at t=35 on the surviving free nodes with 7 iterations left.
	wantClose(t, "end", r.End, 105)
	wantClose(t, "badput", r.BadputNodeSeconds, 10) // 5 s x 2 nodes
	s := rec.Summary()
	if s.NodeFailures != 1 || s.Requeues != 1 {
		t.Errorf("summary failures=%d requeues=%d", s.NodeFailures, s.Requeues)
	}
	wantClose(t, "down node-seconds", s.DownNodeSeconds, 10) // down 35..45
	wantClose(t, "goodput", s.GoodputNodeSeconds, s.NodeSeconds-10)
}

// Without a checkpoint model the same failure loses everything: the job
// restarts from the beginning.
func TestNodeFailureRequeueWithoutCheckpoint(t *testing.T) {
	j := iterJob(0, 2, 10, 2e10, "")
	plat := withFailures(testPlatform(4), traceSpec("", failure.Outage{Node: 0, Down: 35, Up: 45}))
	rec, _ := runSim(t, plat, []*job.Job{j}, &sched.FCFS{}, Options{})
	r := record(rec, 0)
	wantClose(t, "end", r.End, 135)                 // restart at 35 + full 100 s
	wantClose(t, "badput", r.BadputNodeSeconds, 70) // 35 s x 2 nodes
}

// A malleable job shrinks through the failure: the failed node leaves the
// allocation, the interrupted iteration is redone on the survivors, and
// the job never requeues.
func TestMalleableShrinksThroughFailure(t *testing.T) {
	j := &job.Job{
		ID: 0, Type: job.Malleable, NumNodes: 4, NumNodesMin: 2, NumNodesMax: 4,
		Args: map[string]float64{"flops_iter": 4e10},
		App: &job.Application{Phases: []job.Phase{{
			Iterations:      10,
			SchedulingPoint: true,
			Tasks:           []job.Task{{Kind: job.TaskCompute, Model: job.MustExprModel("flops_iter / num_nodes")}},
		}}},
	}
	plat := withFailures(testPlatform(4), traceSpec(failure.RecoverShrink, failure.Outage{Node: 2, Down: 35, Up: 10000}))
	rec, _ := runSim(t, plat, []*job.Job{j}, &sched.FCFS{}, Options{})
	r := record(rec, 0)
	if r.Status != metrics.StatusCompleted || r.Requeues != 0 {
		t.Fatalf("status %q requeues %d", r.Status, r.Requeues)
	}
	if r.Reconfigs != 1 || r.FinalNodes != 3 {
		t.Errorf("reconfigs=%d final=%d", r.Reconfigs, r.FinalNodes)
	}
	// Iterations 0-2 at 10 s on 4 nodes, then iterations 3-9 redone/run at
	// 40/3 s on 3 nodes starting from the failure at t=35.
	wantClose(t, "end", r.End, 35+7*40.0/3)
	wantClose(t, "badput", r.BadputNodeSeconds, 20) // 5 s x 4 nodes
	if s := rec.Summary(); s.Requeues != 0 || s.NodeFailures != 1 {
		t.Errorf("summary requeues=%d failures=%d", s.Requeues, s.NodeFailures)
	}
}

// Under the kill policy an affected job terminates as failed-node.
func TestKillPolicyTerminatesJob(t *testing.T) {
	j := iterJob(0, 2, 10, 2e10, "0")
	plat := withFailures(testPlatform(4), traceSpec(failure.RecoverKill, failure.Outage{Node: 1, Down: 15, Up: 20}))
	rec, _ := runSim(t, plat, []*job.Job{j}, &sched.FCFS{}, Options{})
	r := record(rec, 0)
	if r.Status != metrics.StatusFailedNode || !r.Killed {
		t.Fatalf("status %q killed %t", r.Status, r.Killed)
	}
	wantClose(t, "end", r.End, 15)
	s := rec.Summary()
	if s.FailedNode != 1 || s.Completed != 0 {
		t.Errorf("summary failed=%d completed=%d", s.FailedNode, s.Completed)
	}
}

// MaxRequeues bounds resubmissions: once exhausted the next failure is
// terminal.
func TestMaxRequeuesExhaustion(t *testing.T) {
	j := iterJob(0, 1, 1, 1e11, "") // 100 s, restarted from scratch
	spec := traceSpec(failure.RecoverRequeue,
		failure.Outage{Node: 0, Down: 5, Up: 6},
		failure.Outage{Node: 0, Down: 12, Up: 13})
	spec.MaxRequeues = 1
	rec, _ := runSim(t, withFailures(testPlatform(1), spec), []*job.Job{j}, &sched.FCFS{}, Options{})
	r := record(rec, 0)
	if r.Status != metrics.StatusFailedNode {
		t.Fatalf("status %q", r.Status)
	}
	if r.Requeues != 1 {
		t.Errorf("requeues = %d", r.Requeues)
	}
	wantClose(t, "end", r.End, 12)
	wantClose(t, "badput", r.BadputNodeSeconds, 11) // 5 s + 6 s on 1 node
	if s := rec.Summary(); s.NodeFailures != 2 {
		t.Errorf("node failures = %d", s.NodeFailures)
	}
}

// A scheduler kill of a job waiting in the queue after a node-failure
// requeue ends it as killed-by-scheduler; the earlier start must not make
// the engine treat it as a running job or the recorder reject it.
func TestKillRequeuedPendingJob(t *testing.T) {
	startThenKill := algoFunc(func(inv *sched.Invocation) []sched.Decision {
		var out []sched.Decision
		for _, v := range inv.Pending {
			if inv.Now < 30 {
				out = append(out, sched.Start(v.ID, v.Job.NumNodes))
			} else {
				out = append(out, sched.Decision{Kind: sched.DecisionKill, Job: v.ID})
			}
		}
		return out
	})
	j := iterJob(0, 2, 10, 2e10, "0")
	plat := withFailures(testPlatform(4), traceSpec(failure.RecoverRequeue, failure.Outage{Node: 0, Down: 35, Up: 45}))
	rec, e := runSim(t, plat, []*job.Job{j}, startThenKill, Options{})
	r := record(rec, 0)
	if r.Status != metrics.StatusKilledScheduler || r.Requeues != 1 {
		t.Errorf("status %q after %d requeues, want %q after 1", r.Status, r.Requeues, metrics.StatusKilledScheduler)
	}
	wantClose(t, "start", r.Start, 0)
	wantClose(t, "end", r.End, 35)
	if len(e.Warnings()) > 0 {
		t.Errorf("warnings: %v", e.Warnings())
	}
}

// pinDownAlgo tries to place every pending job on node 0 first, then falls
// back to an unpinned start; it also records the DownNodes it was shown.
type pinDownAlgo struct{ sawDown []int }

func (a *pinDownAlgo) Name() string { return "pin-down" }

func (a *pinDownAlgo) Schedule(inv *sched.Invocation) []sched.Decision {
	if len(inv.DownNodes) > 0 {
		a.sawDown = append([]int(nil), inv.DownNodes...)
	}
	var out []sched.Decision
	for _, v := range inv.Pending {
		out = append(out, sched.Decision{Kind: sched.DecisionStart, Job: v.ID, NumNodes: 1, Nodes: []int{0}})
		out = append(out, sched.Start(v.ID, 1))
	}
	return out
}

// The validator rejects placements on a down node, and algorithms see the
// down set in the invocation snapshot.
func TestValidatorRejectsDownNodePlacement(t *testing.T) {
	j := computeJob(0, 1, 1e10)
	j.SubmitTime = 2
	algo := &pinDownAlgo{}
	plat := withFailures(testPlatform(2), traceSpec("", failure.Outage{Node: 0, Down: 1, Up: 1e6}))
	rec, e := runSim(t, plat, []*job.Job{j}, algo, Options{})
	if !reflect.DeepEqual(algo.sawDown, []int{0}) {
		t.Errorf("algorithm saw DownNodes %v", algo.sawDown)
	}
	found := false
	for _, w := range e.Warnings() {
		if strings.Contains(w, "is down") {
			found = true
		}
	}
	if !found {
		t.Errorf("no rejection warning, got %q", e.Warnings())
	}
	r := record(rec, 0)
	if r.Status != metrics.StatusCompleted {
		t.Fatalf("status %q", r.Status)
	}
	wantClose(t, "end", r.End, 12) // started at t=2 on node 1
}

// A disabled failure spec is indistinguishable from none at all: traces,
// records, and summaries are identical (pay-for-what-you-use).
func TestDisabledFailuresBitIdentical(t *testing.T) {
	mk := func(fs *failure.Spec) ([]string, metrics.Summary, []*metrics.JobRecord) {
		jobs := []*job.Job{
			iterJob(0, 2, 5, 2e10, "60"),
			computeJob(1, 3, 5e10),
			iterJob(2, 4, 3, 4e10, ""),
		}
		jobs[1].SubmitTime = 30
		jobs[2].SubmitTime = 60
		rec, e := runSim(t, withFailures(testPlatform(4), fs), jobs, &sched.FCFS{}, Options{Trace: true})
		var lines []string
		for _, ev := range e.Trace() {
			lines = append(lines, ev.String())
		}
		return lines, rec.Summary(), rec.Records()
	}
	traceA, sumA, recsA := mk(nil)
	traceB, sumB, recsB := mk(&failure.Spec{})
	if !reflect.DeepEqual(traceA, traceB) {
		t.Fatalf("traces differ: %d vs %d lines", len(traceA), len(traceB))
	}
	if sumA != sumB {
		t.Errorf("summaries differ:\n%+v\n%+v", sumA, sumB)
	}
	if !reflect.DeepEqual(recsA, recsB) {
		t.Errorf("records differ")
	}
}
