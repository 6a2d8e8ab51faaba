package experiments

import (
	"fmt"

	"repro/elastisim"
	"repro/internal/fluid"
	"repro/internal/job"
	"repro/internal/sched"
)

// AblationInvocation compares scheduler invocation strategies on the same
// 50% malleable workload: event-driven (the default), and periodic-only at
// two intervals. Event-driven reacts instantly to completions and
// scheduling points; coarse periodic invocation leaves nodes idle between
// ticks.
func AblationInvocation(seed uint64, count int) (*Table, error) {
	wlGen := func() (*elastisim.Workload, error) { return standardWorkload(seed, count, 0.5) }
	t := &Table{
		ID:     "A1",
		Title:  "ablation: scheduler invocation strategy (adaptive policy)",
		Header: []string{"strategy", "makespan", "mean_wait", "utilization", "invocations"},
	}
	run := func(name string, opts elastisim.Options) error {
		wl, err := wlGen()
		if err != nil {
			return err
		}
		res, err := elastisim.Run(elastisim.Config{
			Platform:  StandardPlatform(stdNodes),
			Workload:  wl,
			Algorithm: elastisim.NewAdaptive(),
			Options:   opts,
		})
		if err != nil {
			return err
		}
		s := res.Summary
		t.AddRow(name, f1(s.Makespan), f1(s.MeanWait), pct(s.Utilization),
			fmt.Sprintf("%d", res.Invocations))
		return nil
	}
	if err := run("event-driven", elastisim.Options{}); err != nil {
		return nil, err
	}
	if err := run("periodic 30s", elastisim.Options{InvocationInterval: 30, DisableEventDriven: true}); err != nil {
		return nil, err
	}
	if err := run("periodic 300s", elastisim.Options{InvocationInterval: 300, DisableEventDriven: true}); err != nil {
		return nil, err
	}
	t.AddNote("event-driven invocation dominates; coarse periodic ticks waste capacity between events")
	return t, nil
}

// AblationFairness compares max–min fair sharing against naive equal
// splitting of contended resources on a microbenchmark where the policies
// visibly diverge: a 1-node reader (bound by its 10 GB/s injection link)
// and a 16-node reader share the 80 GB/s PFS. Max–min gives the narrow
// job its link limit (10 GB/s) and the rest (70 GB/s) to the wide job;
// equal split caps both at 40 GB/s, stranding PFS bandwidth the narrow
// job can never use.
func AblationFairness(seed uint64, count int) (*Table, error) {
	_ = seed // the microbenchmark is deterministic
	_ = count
	mk := func(id int, nodes int, bytes string) *elastisim.Job {
		return &elastisim.Job{
			ID: job.ID(id), Type: elastisim.Rigid, NumNodes: nodes,
			App: &elastisim.Application{Phases: []elastisim.Phase{{
				Tasks: []elastisim.Task{{Kind: job.TaskRead, Model: job.MustExprModel(bytes), Target: job.TargetPFS}},
			}}},
		}
	}
	t := &Table{
		ID:     "A2",
		Title:  "ablation: contended-resource sharing policy (PFS microbenchmark)",
		Header: []string{"sharing", "narrow_read_s", "wide_read_s", "agg_pfs_GBps"},
	}
	for _, mode := range []fluid.Fairness{fluid.MaxMin, fluid.EqualSplit} {
		// Narrow: 1 node, 40 GB (link-bound at 10 GB/s -> 4 s either way).
		// Wide: 16 nodes, 280 GB (max-min: 70 GB/s -> 4 s; equal split:
		// 40 GB/s -> 7 s, then the remainder alone).
		wl := &elastisim.Workload{Jobs: []*elastisim.Job{
			mk(0, 1, "40G"), mk(1, 16, "280G"),
		}}
		wl.Sort()
		res, err := elastisim.Run(elastisim.Config{
			Platform:  StandardPlatform(stdNodes),
			Workload:  wl,
			Algorithm: elastisim.NewFCFS(),
			Options:   elastisim.Options{Fairness: mode},
		})
		if err != nil {
			return nil, err
		}
		narrow, wide := res.Records[0].Runtime(), res.Records[1].Runtime()
		agg := (40.0 + 280.0) / res.Summary.Makespan
		t.AddRow(mode.String(), f2(narrow), f2(wide), f1(agg))
	}
	t.AddNote("equal split strands PFS bandwidth behind the narrow job's link bottleneck; max-min hands it to the wide reader")
	return t, nil
}

// AblationMoldable compares moldable sizing policies on an all-moldable
// workload under EASY: requested size, minimum, maximum, and the
// efficiency-bounded analytic sizer (largest size with >= 70% parallel
// efficiency). Oversizing wastes capacity on Amdahl-limited jobs;
// undersizing stretches runtimes.
func AblationMoldable(seed uint64, count int) (*Table, error) {
	gen := func() (*elastisim.Workload, error) {
		return elastisim.GenerateWorkload(elastisim.WorkloadConfig{
			Name: "moldable", Seed: seed, Count: count,
			Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 18},
			Nodes:        [2]int{2, 64},
			MachineNodes: stdNodes,
			NodeSpeed:    stdNodeSpeed,
			TypeShares:   map[job.Type]float64{job.Moldable: 1},
		})
	}
	ref := job.PlatformRef{
		NodeSpeed:  stdNodeSpeed,
		LinkBW:     stdLinkBW,
		PFSReadBW:  stdPFSRead,
		PFSWriteBW: stdPFSWrite,
		BBReadBW:   4e9,
		BBWriteBW:  4e9,
	}
	t := &Table{
		ID:     "A3",
		Title:  "ablation: moldable sizing policy (all-moldable workload, EASY)",
		Header: []string{"sizing", "makespan", "mean_turnaround", "mean_wait", "utilization"},
	}
	policies := []struct {
		name string
		algo elastisim.Algorithm
	}{
		{"requested", &sched.EASY{Sizing: sched.SizeRequested}},
		{"minimum", &sched.EASY{Sizing: sched.SizeMin}},
		{"maximum", &sched.EASY{Sizing: sched.SizeMax}},
		{"efficiency>=0.7", &sched.EASY{SizeFn: sched.EfficiencySizer(ref, 0.7)}},
	}
	for _, p := range policies {
		wl, err := gen()
		if err != nil {
			return nil, err
		}
		res, err := elastisim.Run(elastisim.Config{
			Platform:  StandardPlatform(stdNodes),
			Workload:  wl,
			Algorithm: p.algo,
		})
		if err != nil {
			return nil, err
		}
		s := res.Summary
		t.AddRow(p.name, f1(s.Makespan), f1(s.MeanTurnaround), f1(s.MeanWait), pct(s.Utilization))
	}
	t.AddNote("the analytic efficiency bound sizes Amdahl-limited jobs where extra nodes still pay off")
	return t, nil
}

// AblationFairShare compares FCFS against fair-share scheduling on a
// workload where one account floods the queue and three others submit
// lightly: per-user mean waits should converge under fair share.
func AblationFairShare(seed uint64, count int) (*Table, error) {
	gen := func() (*elastisim.Workload, error) {
		wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
			Name: "users", Seed: seed, Count: count,
			Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 12},
			Nodes:        [2]int{2, 32},
			MachineNodes: stdNodes,
			NodeSpeed:    stdNodeSpeed,
			Users:        4,
		})
		if err != nil {
			return nil, err
		}
		// Make user0 the hog: two thirds of all jobs.
		for i, j := range wl.Jobs {
			if i%3 != 0 {
				j.User = "user0"
			}
		}
		return wl, nil
	}
	t := &Table{
		ID:     "A4",
		Title:  "ablation: fair-share scheduling under a flooding user",
		Header: []string{"algorithm", "wait_hog", "wait_others", "others/hog", "makespan"},
	}
	for _, name := range []string{"fcfs", "easy", "fairshare"} {
		algo, err := elastisim.NewAlgorithm(name)
		if err != nil {
			return nil, err
		}
		wl, err := gen()
		if err != nil {
			return nil, err
		}
		res, err := elastisim.Run(elastisim.Config{
			Platform:  StandardPlatform(stdNodes),
			Workload:  wl,
			Algorithm: algo,
		})
		if err != nil {
			return nil, err
		}
		var hogSum, otherSum float64
		var hogN, otherN int
		for _, r := range res.Records {
			if r.Start < 0 || r.End < 0 {
				continue
			}
			if r.User == "user0" {
				hogSum += r.Wait()
				hogN++
			} else {
				otherSum += r.Wait()
				otherN++
			}
		}
		hog, others := hogSum/float64(maxi(hogN, 1)), otherSum/float64(maxi(otherN, 1))
		ratio := 0.0
		if hog > 0 {
			ratio = others / hog
		}
		t.AddRow(name, f1(hog), f1(others), f2(ratio), f1(res.Summary.Makespan))
	}
	t.AddNote("fair share pushes the light users' waits well below the hog's (ratio falls)")
	return t, nil
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// AblationFastPath measures the dedicated-resource fast path: work on
// job-private resources (own nodes, links, node-local buffers) has a
// closed-form duration and can bypass the fluid solver without changing
// any result (equivalence is proven by the engine's property tests).
// The table reports simulator wall-clock with the fast path on and off.
func AblationFastPath(seed uint64) (*Table, error) {
	t := &Table{
		ID:     "A5",
		Title:  "ablation: dedicated-resource fast path (simulator performance)",
		Header: []string{"nodes", "jobs", "mode", "wall_ms", "events_per_s", "sim_makespan"},
	}
	for _, scale := range []struct{ nodes, jobs int }{{256, 200}, {1024, 400}} {
		for _, disable := range []bool{false, true} {
			wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
				Name: "fp", Seed: seed, Count: scale.jobs,
				Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: float64(scale.nodes) / 1200.0},
				Nodes:        [2]int{1, 64},
				MachineNodes: scale.nodes,
				NodeSpeed:    stdNodeSpeed,
				TypeShares:   map[job.Type]float64{job.Rigid: 0.5, job.Malleable: 0.5},
			})
			if err != nil {
				return nil, err
			}
			res, err := elastisim.Run(elastisim.Config{
				Platform:  StandardPlatform(scale.nodes),
				Workload:  wl,
				Algorithm: elastisim.NewAdaptive(),
				Options:   elastisim.Options{DisableFastPath: disable},
			})
			if err != nil {
				return nil, err
			}
			mode := "fast-path"
			if disable {
				mode = "full-fluid"
			}
			t.AddRow(fmt.Sprintf("%d", scale.nodes), fmt.Sprintf("%d", scale.jobs), mode,
				fmt.Sprintf("%d", res.WallClock.Milliseconds()),
				fmt.Sprintf("%.0f", float64(res.Events)/res.WallClock.Seconds()),
				f1(res.Summary.Makespan))
		}
	}
	t.AddNote("identical simulation results (see TestFastPathEquivalence); only wall-clock differs")
	return t, nil
}
