package core

import (
	"testing"

	"repro/internal/job"
	"repro/internal/platform"
	"repro/internal/sched"
)

func TestHeterogeneousComputeBoundBySlowest(t *testing.T) {
	// Two node groups: 4 slow (1 Gflop/s) + 4 fast (4 Gflop/s). A rigid
	// job spanning both runs at the slow nodes' pace.
	spec := &platform.Spec{
		Name: "hetero",
		Nodes: []platform.NodeGroupSpec{
			{Count: 4, Speed: 1e9, NamePrefix: "slow"},
			{Count: 4, Speed: 4e9, NamePrefix: "fast"},
		},
		Network: platform.NetworkSpec{LinkBandwidth: 1e9},
		PFS:     &platform.StorageSpec{ReadBandwidth: 2e9, WriteBandwidth: 2e9},
	}
	// 6 nodes: 4 slow + 2 fast (allocator picks lowest IDs first).
	j := computeJob(0, 6, 6e10) // 1e10 per node at "flops/num_nodes"
	rec, _ := runSim(t, spec, []*job.Job{j}, &sched.FCFS{}, Options{})
	// Per-node work 1e10 at the slowest speed 1e9 -> 10 s.
	wantClose(t, "hetero compute", record(rec, 0).Runtime(), 10)

	// A job pinned entirely onto the fast nodes finishes 4x faster.
	pinner := algoFunc(func(inv *sched.Invocation) []sched.Decision {
		var out []sched.Decision
		for _, v := range inv.Pending {
			out = append(out, sched.Decision{
				Kind: sched.DecisionStart, Job: v.ID,
				NumNodes: 4, Nodes: []int{4, 5, 6, 7},
			})
		}
		return out
	})
	jf := computeJob(0, 4, 4e10)
	recFast, _ := runSim(t, spec, []*job.Job{jf}, pinner, Options{})
	wantClose(t, "fast-node compute", record(recFast, 0).Runtime(), 2.5)
}

func TestHeterogeneousFastPathEquivalence(t *testing.T) {
	spec := &platform.Spec{
		Name: "hetero",
		Nodes: []platform.NodeGroupSpec{
			{Count: 8, Speed: 1e9},
			{Count: 8, Speed: 3e9},
		},
		Network: platform.NetworkSpec{LinkBandwidth: 1e9},
		PFS:     &platform.StorageSpec{ReadBandwidth: 2e9, WriteBandwidth: 2e9},
	}
	gen := func() *job.Workload {
		w, err := job.Generate(job.Config{
			Seed: 3, Count: 20,
			Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.05},
			Nodes:        [2]int{1, 8},
			MachineNodes: 16,
			NodeSpeed:    1e9,
			TypeShares:   map[job.Type]float64{job.Rigid: 1, job.Malleable: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	run := func(disable bool) []float64 {
		e, err := New(spec, gen(), &sched.Adaptive{}, Options{DisableFastPath: disable})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		var ends []float64
		for _, r := range rec.Records() {
			ends = append(ends, r.End)
		}
		return ends
	}
	fast, slow := run(false), run(true)
	for i := range fast {
		if diff := fast[i] - slow[i]; diff > 1e-6 || diff < -1e-6 {
			t.Errorf("job %d end diverged: %v vs %v", i, fast[i], slow[i])
		}
	}
}

func TestLatencyWithFastPath(t *testing.T) {
	// Star topology + latency goes through the closed form: latency is
	// included exactly once.
	spec := testPlatform(4)
	spec.Network.Latency = 0.5
	j := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 2,
		App: &job.Application{Phases: []job.Phase{{
			Iterations: 3,
			Tasks:      []job.Task{{Kind: job.TaskComm, Model: job.MustExprModel("1G"), Pattern: job.PatternRing}},
		}}},
	}
	rec, _ := runSim(t, spec, []*job.Job{j}, &sched.FCFS{}, Options{})
	// Per iteration: 0.5 latency + 1 s transfer; 3 iterations.
	wantClose(t, "latency fast path", record(rec, 0).Runtime(), 4.5)
}
