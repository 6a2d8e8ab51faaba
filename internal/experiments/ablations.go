package experiments

import (
	"fmt"

	"repro/elastisim"
	"repro/internal/fluid"
	"repro/internal/job"
	"repro/internal/sched"
)

var a1Strategies = []struct {
	name string
	opts elastisim.Options
}{
	{"event-driven", elastisim.Options{}},
	{"periodic 30s", elastisim.Options{InvocationInterval: 30, DisableEventDriven: true}},
	{"periodic 300s", elastisim.Options{InvocationInterval: 300, DisableEventDriven: true}},
}

// a1 compares scheduler invocation strategies on the same 50% malleable
// workload: event-driven (the default), and periodic-only at two
// intervals. Event-driven reacts instantly to completions and scheduling
// points; coarse periodic invocation leaves nodes idle between ticks.
var a1 = Experiment{
	ID:     "A1",
	Title:  "ablation: scheduler invocation strategy (adaptive policy)",
	Header: []string{"strategy", "makespan", "mean_wait", "utilization", "invocations"},
	Configs: func(seed uint64, jobs int) ([]elastisim.Config, error) {
		return each(len(a1Strategies), func(i int) (elastisim.Config, error) {
			cfg, err := standardConfig(seed, jobs, 0.5, elastisim.NewAdaptive())
			cfg.Options = a1Strategies[i].opts
			return cfg, err
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			s := r.Summary
			t.AddRow(a1Strategies[i].name, f1(s.Makespan), f1(s.MeanWait), pct(s.Utilization),
				fmt.Sprintf("%d", r.Invocations))
		}
		t.AddNote("event-driven invocation dominates; coarse periodic ticks waste capacity between events")
	},
}

var a2Modes = []fluid.Fairness{fluid.MaxMin, fluid.EqualSplit}

// a2 compares max–min fair sharing against naive equal splitting of
// contended resources on a deterministic microbenchmark where the policies
// visibly diverge: a 1-node reader (bound by its 10 GB/s injection link)
// and a 16-node reader share the 80 GB/s PFS. Max–min gives the narrow job
// its link limit (10 GB/s) and the rest (70 GB/s) to the wide job; equal
// split caps both at 40 GB/s, stranding PFS bandwidth the narrow job can
// never use.
var a2 = Experiment{
	ID:     "A2",
	Title:  "ablation: contended-resource sharing policy (PFS microbenchmark)",
	Header: []string{"sharing", "narrow_read_s", "wide_read_s", "agg_pfs_GBps"},
	Configs: func(uint64, int) ([]elastisim.Config, error) {
		reader := func(id int, nodes int, bytes string) *elastisim.Job {
			return &elastisim.Job{
				ID: job.ID(id), Type: elastisim.Rigid, NumNodes: nodes,
				App: &elastisim.Application{Phases: []elastisim.Phase{{
					Tasks: []elastisim.Task{{Kind: job.TaskRead, Model: job.MustExprModel(bytes), Target: job.TargetPFS}},
				}}},
			}
		}
		return each(len(a2Modes), func(i int) (elastisim.Config, error) {
			// Narrow: 1 node, 40 GB (link-bound at 10 GB/s -> 4 s either way).
			// Wide: 16 nodes, 280 GB (max-min: 70 GB/s -> 4 s; equal split:
			// 40 GB/s -> 7 s, then the remainder alone).
			wl := &elastisim.Workload{Jobs: []*elastisim.Job{
				reader(0, 1, "40G"), reader(1, 16, "280G"),
			}}
			wl.Sort()
			return elastisim.Config{
				Platform:  StandardPlatform(stdNodes),
				Workload:  wl,
				Algorithm: elastisim.NewFCFS(),
				Options:   elastisim.Options{Fairness: a2Modes[i]},
			}, nil
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			narrow, wide := r.Records[0].Runtime(), r.Records[1].Runtime()
			agg := (40.0 + 280.0) / r.Summary.Makespan
			t.AddRow(a2Modes[i].String(), f2(narrow), f2(wide), f1(agg))
		}
		t.AddNote("equal split strands PFS bandwidth behind the narrow job's link bottleneck; max-min hands it to the wide reader")
	},
}

var a3Sizings = []struct {
	name string
	algo func() elastisim.Algorithm
}{
	{"requested", func() elastisim.Algorithm { return &sched.EASY{Sizing: sched.SizeRequested} }},
	{"minimum", func() elastisim.Algorithm { return &sched.EASY{Sizing: sched.SizeMin} }},
	{"maximum", func() elastisim.Algorithm { return &sched.EASY{Sizing: sched.SizeMax} }},
	{"efficiency>=0.7", func() elastisim.Algorithm {
		return &sched.EASY{SizeFn: sched.EfficiencySizer(job.PlatformRef{
			NodeSpeed:  stdNodeSpeed,
			LinkBW:     stdLinkBW,
			PFSReadBW:  stdPFSRead,
			PFSWriteBW: stdPFSWrite,
			BBReadBW:   4e9,
			BBWriteBW:  4e9,
		}, 0.7)}
	}},
}

// a3 compares moldable sizing policies on an all-moldable workload under
// EASY: requested size, minimum, maximum, and the efficiency-bounded
// analytic sizer (largest size with >= 70% parallel efficiency).
// Oversizing wastes capacity on Amdahl-limited jobs; undersizing
// stretches runtimes.
var a3 = Experiment{
	ID:     "A3",
	Title:  "ablation: moldable sizing policy (all-moldable workload, EASY)",
	Header: []string{"sizing", "makespan", "mean_turnaround", "mean_wait", "utilization"},
	Configs: func(seed uint64, jobs int) ([]elastisim.Config, error) {
		return each(len(a3Sizings), func(i int) (elastisim.Config, error) {
			wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
				Name: "moldable", Seed: seed, Count: jobs,
				Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 18},
				Nodes:        [2]int{2, 64},
				MachineNodes: stdNodes,
				NodeSpeed:    stdNodeSpeed,
				TypeShares:   map[job.Type]float64{job.Moldable: 1},
			})
			return elastisim.Config{
				Platform: StandardPlatform(stdNodes), Workload: wl, Algorithm: a3Sizings[i].algo(),
			}, err
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			s := r.Summary
			t.AddRow(a3Sizings[i].name, f1(s.Makespan), f1(s.MeanTurnaround), f1(s.MeanWait), pct(s.Utilization))
		}
		t.AddNote("the analytic efficiency bound sizes Amdahl-limited jobs where extra nodes still pay off")
	},
}

var a4Algorithms = []string{"fcfs", "easy", "fairshare"}

// a4 compares FCFS against fair-share scheduling on a workload where one
// account floods the queue and three others submit lightly: per-user mean
// waits should converge under fair share.
var a4 = Experiment{
	ID:     "A4",
	Title:  "ablation: fair-share scheduling under a flooding user",
	Header: []string{"algorithm", "wait_hog", "wait_others", "others/hog", "makespan"},
	Configs: func(seed uint64, jobs int) ([]elastisim.Config, error) {
		return each(len(a4Algorithms), func(i int) (elastisim.Config, error) {
			algo, err := elastisim.NewAlgorithm(a4Algorithms[i])
			if err != nil {
				return elastisim.Config{}, err
			}
			wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
				Name: "users", Seed: seed, Count: jobs,
				Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 12},
				Nodes:        [2]int{2, 32},
				MachineNodes: stdNodes,
				NodeSpeed:    stdNodeSpeed,
				Users:        4,
			})
			if err != nil {
				return elastisim.Config{}, err
			}
			// Make user0 the hog: two thirds of all jobs.
			for i, j := range wl.Jobs {
				if i%3 != 0 {
					j.User = "user0"
				}
			}
			return elastisim.Config{Platform: StandardPlatform(stdNodes), Workload: wl, Algorithm: algo}, nil
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			var hogSum, otherSum float64
			var hogN, otherN int
			for _, rec := range r.Records {
				if rec.Start < 0 || rec.End < 0 {
					continue
				}
				if rec.User == "user0" {
					hogSum += rec.Wait()
					hogN++
				} else {
					otherSum += rec.Wait()
					otherN++
				}
			}
			hog, others := hogSum/float64(max(hogN, 1)), otherSum/float64(max(otherN, 1))
			ratio := 0.0
			if hog > 0 {
				ratio = others / hog
			}
			t.AddRow(a4Algorithms[i], f1(hog), f1(others), f2(ratio), f1(r.Summary.Makespan))
		}
		t.AddNote("fair share pushes the light users' waits well below the hog's (ratio falls)")
	},
}

var a5Arms = []struct {
	scale
	fullFluid bool
}{
	{scale{256, 200}, false}, {scale{256, 200}, true},
	{scale{1024, 400}, false}, {scale{1024, 400}, true},
}

// a5 measures the dedicated-resource fast path: work on job-private
// resources (own nodes, links, node-local buffers) has a closed-form
// duration and can bypass the fluid solver without changing any result
// (equivalence is proven by the engine's property tests). The table
// reports simulator wall-clock with the fast path on and off.
var a5 = Experiment{
	ID:     "A5",
	Title:  "ablation: dedicated-resource fast path (simulator performance)",
	Header: []string{"nodes", "jobs", "mode", "wall_ms", "events_per_s", "sim_makespan"},
	Configs: func(seed uint64, _ int) ([]elastisim.Config, error) {
		return each(len(a5Arms), func(i int) (elastisim.Config, error) {
			c := a5Arms[i]
			wl, err := perfWorkload("fp", seed, c.nodes, c.jobs)
			return elastisim.Config{
				Platform:  StandardPlatform(c.nodes),
				Workload:  wl,
				Algorithm: elastisim.NewAdaptive(),
				Options:   elastisim.Options{DisableFastPath: c.fullFluid},
			}, err
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			c := a5Arms[i]
			mode := "fast-path"
			if c.fullFluid {
				mode = "full-fluid"
			}
			t.AddRow(fmt.Sprintf("%d", c.nodes), fmt.Sprintf("%d", c.jobs), mode,
				fmt.Sprintf("%d", r.WallClock.Milliseconds()),
				fmt.Sprintf("%.0f", float64(r.Events)/r.WallClock.Seconds()),
				f1(r.Summary.Makespan))
		}
		t.AddNote("identical simulation results (see TestFastPathEquivalence); only wall-clock differs")
	},
	timed: true,
}
