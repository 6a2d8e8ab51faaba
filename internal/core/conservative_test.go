package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/failure"
	"repro/internal/job"
	"repro/internal/platform"
	"repro/internal/sched"
)

// keptPassOracle schedules with one sched.Conservative kept across the
// run and, at every invocation, also schedules the same snapshot with a
// fresh one, which always makes a full pass. The kept value reuses its
// last pass on a call that only adds jobs to the queue, so equal decisions
// at every call mean the reuse changed nothing.
type keptPassOracle struct {
	kept    sched.Conservative
	label   string
	report  func(msg string)
	calls   int
	submits int // calls whose only reason was a submission
	failed  bool
}

func newKeptPassOracle(t *testing.T, label string) *keptPassOracle {
	return &keptPassOracle{label: label, report: func(msg string) { t.Error(msg) }}
}

func (o *keptPassOracle) Name() string { return o.kept.Name() }

func (o *keptPassOracle) Schedule(inv *sched.Invocation) []sched.Decision {
	o.calls++
	if inv.Reasons == sched.ReasonSubmit {
		o.submits++
	}
	got := o.kept.Schedule(inv)
	want := (&sched.Conservative{}).Schedule(inv)
	if !o.failed && (len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want)) {
		o.failed = true
		o.report(fmt.Sprintf("%s: call %d at t=%v (%v): kept pass decided %v, fresh pass %v",
			o.label, o.calls, inv.Now, inv.Reasons, got, want))
	}
	return got
}

// TestConservativeKeptPass runs the oracle over the workloads of
// TestInvariantsAcrossAlgorithms, over the view checker's scenarios
// (node failures under each recovery policy, dependencies, scheduler
// kills, a tree network), and over a 400-job run shaped like the
// benchmark's deep_queue, where most calls only add a job to a long queue.
func TestConservativeKeptPass(t *testing.T) {
	for seed := uint64(1); seed <= 12; seed++ {
		o := newKeptPassOracle(t, fmt.Sprint("invariants seed ", seed))
		runOracle(t, o, testPlatform(16), randomWorkload(t, seed, 25))
	}

	var oracles []*keptPassOracle
	algos := func() []sched.Algorithm {
		o := newKeptPassOracle(t, fmt.Sprint("view scenario ", len(oracles)))
		oracles = append(oracles, o)
		return []sched.Algorithm{o}
	}
	for _, s := range []viewScenario{
		{name: "shrink", seed: 1, recovery: failure.RecoverShrink},
		{name: "requeue", seed: 2, recovery: failure.RecoverRequeue},
		{name: "kill", seed: 3, recovery: failure.RecoverKill},
		{name: "deps", seed: 4, deps: true},
		{name: "scheduler-kills", seed: 5, kills: true},
		{name: "tree", seed: 6, recovery: failure.RecoverShrink, tree: true},
	} {
		s.algos = algos
		s.run(t, map[string]int{})
	}

	w, err := job.Generate(job.Config{
		Seed: 1, Count: 400,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 512.0 / 600},
		Nodes:        [2]int{2, 64},
		MachineNodes: 512,
		NodeSpeed:    100e9,
		TypeShares:   map[job.Type]float64{job.Rigid: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	deep := newKeptPassOracle(t, "deep queue")
	runOracle(t, deep, platform.Homogeneous("deep", 512, 100e9, 10e9, 80e9, 60e9), w)
	if deep.submits < deep.calls/4 {
		t.Errorf("deep queue: %d of %d calls only submitted a job", deep.submits, deep.calls)
	}
	t.Logf("deep queue: %d calls, %d submit-only", deep.calls, deep.submits)
}

// runOracle simulates w under o until the run drains or o reports.
func runOracle(t *testing.T, o *keptPassOracle, spec *platform.Spec, w *job.Workload) {
	t.Helper()
	e, err := New(spec, w, o, Options{})
	if err != nil {
		t.Fatalf("%s: %v", o.label, err)
	}
	for !o.failed && e.Advance(math.Inf(1), 1024) > 0 {
	}
	if o.failed {
		return
	}
	if _, err := e.Finish(); err != nil {
		t.Fatalf("%s: %v", o.label, err)
	}
	if o.calls == 0 {
		t.Errorf("%s: the algorithm was never invoked", o.label)
	}
}
