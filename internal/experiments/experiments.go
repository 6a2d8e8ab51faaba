package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/elastisim"
	"repro/internal/job"
	"repro/internal/platform"
)

// Experiment is one table of the evaluation, declared as data: Configs
// builds its simulations and Rows turns their results into the table.
type Experiment struct {
	ID, Title string
	Header    []string
	// Configs builds the simulations for a workload seed and a batch job
	// count; tables whose workload is fixed ignore one or both.
	Configs func(seed uint64, jobs int) ([]elastisim.Config, error)
	// Rows fills the table from the results, which arrive in Configs order.
	Rows func(t *Table, res []*elastisim.Result)
	// timed marks a table that reports Result.WallClock: its simulations
	// run one at a time, so no arm's clock includes another's load, and
	// timedReps times over (see Run).
	timed bool
}

// timedReps is how often a timed table runs each of its simulations. The
// arms take 1–30 ms, so one run's clock is mostly host noise; the fastest
// of five is the least disturbed.
const timedReps = 5

// All lists every table of the evaluation in report order.
var All = []Experiment{e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, a1, a2, a3, a4, a5}

// Run builds and runs the experiment's simulations and returns its table
// and the results in Configs order. Untimed tables run their simulations
// on one worker per CPU. Timed tables run every simulation timedReps
// times, one after another and all arms in each round, on freshly built
// configurations; each result keeps the smallest WallClock, and a round
// whose simulated outcome differs from the first is an error.
func (x Experiment) Run(seed uint64, jobs int) (*Table, []*elastisim.Result, error) {
	reps, workers := 1, 0
	if x.timed {
		reps, workers = timedReps, 1
	}
	var res []*elastisim.Result
	for rep := 0; rep < reps; rep++ {
		cfgs, err := x.Configs(seed, jobs)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", x.ID, err)
		}
		round, err := runIndexed(workers, len(cfgs), func(i int) (*elastisim.Result, error) {
			return elastisim.Run(cfgs[i])
		})
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", x.ID, err)
		}
		if res == nil {
			res = round
			continue
		}
		for i, r := range round {
			if r.Events != res[i].Events || r.Summary != res[i].Summary {
				return nil, nil, fmt.Errorf("%s: simulation %d changed between timed repetitions", x.ID, i)
			}
			res[i].WallClock = min(res[i].WallClock, r.WallClock)
		}
	}
	t := &Table{ID: x.ID, Title: x.Title, Header: x.Header}
	x.Rows(t, res)
	return t, res, nil
}

// each builds n configurations with fn, stopping at the first error.
func each(n int, fn func(i int) (elastisim.Config, error)) ([]elastisim.Config, error) {
	cfgs := make([]elastisim.Config, n)
	for i := range cfgs {
		var err error
		if cfgs[i], err = fn(i); err != nil {
			return nil, err
		}
	}
	return cfgs, nil
}

// Standard experiment machine: 128 nodes, 100 Gflop/s each, 10 GB/s links,
// 80/60 GB/s PFS — a small tier-2 cluster, the scale such papers evaluate
// at.
const (
	stdNodes     = 128
	stdNodeSpeed = 100e9
	stdLinkBW    = 10e9
	stdPFSRead   = 80e9
	stdPFSWrite  = 60e9
)

// StandardPlatform returns the experiment cluster.
func StandardPlatform(nodes int) *elastisim.PlatformSpec {
	return elastisim.HomogeneousPlatform("exp", nodes, stdNodeSpeed, stdLinkBW, stdPFSRead, stdPFSWrite)
}

// standardWorkload generates the shared batch workload: mixed profiles,
// Poisson arrivals sized to keep the machine busy, with the given malleable
// share (the remainder is rigid).
func standardWorkload(seed uint64, count int, malleableShare float64) (*elastisim.Workload, error) {
	shares := map[job.Type]float64{}
	if malleableShare < 1 {
		shares[job.Rigid] = 1 - malleableShare
	}
	if malleableShare > 0 {
		shares[job.Malleable] = malleableShare
	}
	return elastisim.GenerateWorkload(elastisim.WorkloadConfig{
		Name:         fmt.Sprintf("std-%.0f%%", malleableShare*100),
		Seed:         seed,
		Count:        count,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 18},
		Nodes:        [2]int{2, 64},
		MachineNodes: stdNodes,
		NodeSpeed:    stdNodeSpeed,
		TypeShares:   shares,
	})
}

// standardConfig runs the standard workload on the standard platform.
func standardConfig(seed uint64, count int, malleableShare float64, algo elastisim.Algorithm) (elastisim.Config, error) {
	wl, err := standardWorkload(seed, count, malleableShare)
	return elastisim.Config{Platform: StandardPlatform(stdNodes), Workload: wl, Algorithm: algo}, err
}

// e1 reproduces the utilization-over-time figure: the same workload
// scheduled rigid-only (EASY) versus fully malleable (adaptive).
var e1 = Experiment{
	ID:     "E1",
	Title:  "cluster utilization over time, rigid (EASY) vs malleable (adaptive)",
	Header: []string{"time", "util_rigid", "util_malleable"},
	Configs: func(seed uint64, jobs int) ([]elastisim.Config, error) {
		rigid, err := standardConfig(seed, jobs, 0, elastisim.NewEASY())
		if err != nil {
			return nil, err
		}
		mall, err := standardConfig(seed, jobs, 1, elastisim.NewAdaptive())
		return []elastisim.Config{rigid, mall}, err
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		rigid, mall := res[0], res[1]
		horizon := math.Max(rigid.Summary.Makespan, mall.Summary.Makespan)
		const buckets = 20
		for i := 0; i < buckets; i++ {
			a := horizon * float64(i) / buckets
			b := horizon * float64(i+1) / buckets
			ur := rigid.Recorder.BusyTimeline().Mean(a, b) / stdNodes
			um := mall.Recorder.BusyTimeline().Mean(a, b) / stdNodes
			t.AddRow(f1(a), pct(ur), pct(um))
		}
		t.AddNote("mean utilization: rigid %s, malleable %s; makespan: rigid %s, malleable %s",
			pct(rigid.Summary.Utilization), pct(mall.Summary.Utilization),
			f1(rigid.Summary.Makespan), f1(mall.Summary.Makespan))
	},
}

var e2Shares = []float64{0, 0.25, 0.5, 0.75, 1.0}

// e2 reproduces the makespan/turnaround-vs-malleable-share figure: 0..100%
// in 25% steps under the adaptive policy.
var e2 = Experiment{
	ID:     "E2",
	Title:  "batch metrics vs malleable job share (adaptive policy)",
	Header: []string{"malleable", "makespan", "mean_turnaround", "mean_wait", "utilization", "reconfigs"},
	Configs: func(seed uint64, jobs int) ([]elastisim.Config, error) {
		return each(len(e2Shares), func(i int) (elastisim.Config, error) {
			return standardConfig(seed, jobs, e2Shares[i], elastisim.NewAdaptive())
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			s := r.Summary
			t.AddRow(pct(e2Shares[i]), f1(s.Makespan), f1(s.MeanTurnaround), f1(s.MeanWait),
				pct(s.Utilization), fmt.Sprintf("%d", s.Reconfigs))
		}
		first, last := res[0].Summary, res[len(res)-1].Summary
		t.AddNote("makespan %s -> %s (%.1f%% change) as malleable share goes 0%% -> 100%%",
			f1(first.Makespan), f1(last.Makespan), 100*(last.Makespan-first.Makespan)/first.Makespan)
	},
}

var e3Algorithms = []string{"fcfs", "sjf", "conservative", "easy", "adaptive"}

// e3 reproduces the scheduling-algorithm comparison table on one fixed
// mixed workload (50% malleable).
var e3 = Experiment{
	ID:     "E3",
	Title:  "scheduler comparison on a 50% malleable workload",
	Header: []string{"algorithm", "makespan", "mean_wait", "p95_wait", "mean_slowdown", "utilization"},
	Configs: func(seed uint64, jobs int) ([]elastisim.Config, error) {
		return each(len(e3Algorithms), func(i int) (elastisim.Config, error) {
			algo, err := elastisim.NewAlgorithm(e3Algorithms[i])
			if err != nil {
				return elastisim.Config{}, err
			}
			return standardConfig(seed, jobs, 0.5, algo)
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			s := r.Summary
			t.AddRow(e3Algorithms[i], f1(s.Makespan), f1(s.MeanWait), f1(s.P95Wait), f2(s.MeanSlowdown), pct(s.Utilization))
		}
		t.AddNote("expected shape: EASY <= FCFS makespan; adaptive best (exploits malleability)")
	},
}

var e4Targets = []struct {
	name   string
	target job.IOTarget
}{{"pfs", job.TargetPFS}, {"burst-buffer", job.TargetBB}}

// e4 reproduces the I/O-offloading figure: an I/O-heavy checkpointing
// workload, a third the batch size, with checkpoints to the shared PFS vs
// node-local burst buffers.
var e4 = Experiment{
	ID:     "E4",
	Title:  "checkpoint target: shared PFS vs node-local burst buffers",
	Header: []string{"target", "makespan", "mean_runtime", "mean_slowdown", "utilization"},
	Configs: func(seed uint64, jobs int) ([]elastisim.Config, error) {
		return each(len(e4Targets), func(i int) (elastisim.Config, error) {
			spec := StandardPlatform(stdNodes)
			spec.BurstBuffer = &platform.BurstBufferSpec{
				Kind: platform.BBNodeLocal, ReadBandwidth: 4e9, WriteBandwidth: 4e9,
			}
			wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
				Name: "io-" + string(e4Targets[i].target), Seed: seed, Count: jobs / 3,
				Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 25},
				Nodes:        [2]int{2, 32},
				MachineNodes: stdNodes,
				NodeSpeed:    stdNodeSpeed,
				Profiles: []job.Profile{{
					Name: "ckpt", Weight: 1, Kind: job.ProfileIOBound,
					Iterations:     [2]int{5, 15},
					ComputeSecs:    [2]float64{20, 60},
					IOBytes:        [2]float64{64e9, 256e9},
					SerialFraction: [2]float64{0.01, 0.05},
				}},
				CheckpointTarget: e4Targets[i].target,
			})
			return elastisim.Config{Platform: spec, Workload: wl, Algorithm: elastisim.NewEASY()}, err
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, tgt := range e4Targets {
			meanRun := 0.0
			n := 0
			for _, r := range res[i].Records {
				if r.End >= 0 && r.Start >= 0 {
					meanRun += r.Runtime()
					n++
				}
			}
			if n > 0 {
				meanRun /= float64(n)
			}
			s := res[i].Summary
			t.AddRow(tgt.name, f1(s.Makespan), f1(meanRun), f2(s.MeanSlowdown), pct(s.Utilization))
		}
		t.AddNote("burst buffers decongest the shared PFS: makespan and slowdown improve even though small jobs may checkpoint slower on their local tier")
	},
}

// perfWorkload is the half-malleable workload of the simulator-performance
// tables, with arrivals scaled to the machine size.
func perfWorkload(name string, seed uint64, nodes, count int) (*elastisim.Workload, error) {
	return elastisim.GenerateWorkload(elastisim.WorkloadConfig{
		Name: name, Seed: seed, Count: count,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: float64(nodes) / 1200.0},
		Nodes:        [2]int{1, min(64, nodes)},
		MachineNodes: nodes,
		NodeSpeed:    stdNodeSpeed,
		TypeShares:   map[job.Type]float64{job.Rigid: 0.5, job.Malleable: 0.5},
	})
}

// scale is one machine size and job count of the timed tables.
type scale struct{ nodes, jobs int }

var e5Scales = []scale{
	{64, 100}, {64, 200}, {64, 400},
	{256, 100}, {256, 200}, {256, 400},
	{1024, 100}, {1024, 200}, {1024, 400},
}

// e5 reproduces the simulator-performance figure: wall-clock time and
// event counts versus number of jobs and machine size.
var e5 = Experiment{
	ID:     "E5",
	Title:  "simulator performance: wall-clock vs jobs and machine size",
	Header: []string{"nodes", "jobs", "sim_events", "wall_ms", "events_per_s", "sim_makespan"},
	Configs: func(seed uint64, _ int) ([]elastisim.Config, error) {
		return each(len(e5Scales), func(i int) (elastisim.Config, error) {
			c := e5Scales[i]
			wl, err := perfWorkload("scal", seed, c.nodes, c.jobs)
			return elastisim.Config{
				Platform: StandardPlatform(c.nodes), Workload: wl, Algorithm: elastisim.NewAdaptive(),
			}, err
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			t.AddRow(fmt.Sprintf("%d", e5Scales[i].nodes), fmt.Sprintf("%d", e5Scales[i].jobs),
				fmt.Sprintf("%d", r.Events),
				wallMillis(r.WallClock),
				fmt.Sprintf("%.0f", float64(r.Events)/r.WallClock.Seconds()),
				f1(r.Summary.Makespan))
		}
		t.AddNote("wall-clock grows with event count; events grow near-linearly with job count")
	},
	timed: true,
}

// wallMillis formats a timed table's wall_ms cell to the hundredth.
func wallMillis(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// e6Cases are E6's analytic microbenchmarks on a 1 Gflop/s, 1 GB/s,
// 2 GB/s-PFS reference platform: copies rigid jobs of the given size, each
// running one task, and the closed-form runtime of the first.
var e6Cases = []struct {
	name          string
	nodes, copies int
	kind          job.TaskKind
	model         string
	pattern       job.CommPattern
	target        job.IOTarget
	analytic      float64
}{
	{"compute 1e10 flops, 4 nodes", 4, 1, job.TaskCompute, "1e10/num_nodes", "", "", 2.5},
	{"allreduce 1GB, 4 nodes", 4, 1, job.TaskComm, "1G", job.PatternAllReduce, "", 1.5},
	{"alltoall 1GB, 4 nodes", 4, 1, job.TaskComm, "1G", job.PatternAllToAll, "", 3},
	{"pfs read 8GB, 2 nodes", 2, 1, job.TaskRead, "8G", "", job.TargetPFS, 4},
	{"pfs read 8GB, 1 node (link-bound)", 1, 1, job.TaskRead, "8G", "", job.TargetPFS, 8},
	{"delay 12.5s", 1, 1, job.TaskDelay, "12.5", "", "", 12.5},
	// Each job alone is already capped at 1 GB/s by its link, so sharing
	// the 2 GB/s PFS is invisible: 2 s. Visible contention is covered by
	// E4 and the core tests.
	{"2x pfs write 2GB, 1 node each", 1, 2, job.TaskWrite, "2G", "", job.TargetPFS, 2},
}

func relErr(simulated, analytic float64) float64 {
	return math.Abs(simulated-analytic) / analytic
}

// e6 reproduces the validation table: simulated phase durations against
// closed-form expectations.
var e6 = Experiment{
	ID:     "E6",
	Title:  "validation: simulated vs analytic durations",
	Header: []string{"case", "simulated_s", "analytic_s", "rel_error"},
	Configs: func(uint64, int) ([]elastisim.Config, error) {
		return each(len(e6Cases), func(i int) (elastisim.Config, error) {
			c := e6Cases[i]
			wl := &elastisim.Workload{}
			for id := 0; id < c.copies; id++ {
				task := elastisim.Task{Kind: c.kind, Model: job.MustExprModel(c.model), Pattern: c.pattern, Target: c.target}
				wl.Jobs = append(wl.Jobs, &elastisim.Job{
					ID: job.ID(id), Type: elastisim.Rigid, NumNodes: c.nodes,
					App: &elastisim.Application{Phases: []elastisim.Phase{{Tasks: []elastisim.Task{task}}}},
				})
			}
			wl.Sort()
			return elastisim.Config{
				Platform:  elastisim.HomogeneousPlatform("val", 8, 1e9, 1e9, 2e9, 2e9),
				Workload:  wl,
				Algorithm: elastisim.NewFCFS(),
			}, nil
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		worst := 0.0
		for i, c := range e6Cases {
			sim := res[i].Records[0].Runtime()
			worst = math.Max(worst, relErr(sim, c.analytic))
			t.AddRow(c.name, f3(sim), f3(c.analytic), pct(relErr(sim, c.analytic)))
		}
		t.AddNote("worst relative error %s (fluid model is exact for these closed forms)", pct(worst))
	},
}

// e7 reproduces the evolving-jobs figure: one evolving job's allocation
// over time under background load, plus grant statistics.
var e7 = Experiment{
	ID:     "E7",
	Title:  "evolving job adaptivity under background load",
	Header: []string{"metric", "value"},
	Configs: func(seed uint64, _ int) ([]elastisim.Config, error) {
		// Background: rigid jobs leaving some headroom.
		bg, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
			Name: "bg", Seed: seed, Count: 30,
			Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 40},
			Nodes:        [2]int{2, 32},
			MachineNodes: stdNodes,
			NodeSpeed:    stdNodeSpeed,
		})
		if err != nil {
			return nil, err
		}
		evolving := &elastisim.Job{
			Name: "amr", Type: elastisim.Evolving,
			NumNodesMin: 4, NumNodesMax: 64, NumNodes: 8,
			SubmitTime: 1,
			Args:       map[string]float64{"w": 40 * stdNodeSpeed},
			App: &elastisim.Application{Phases: []elastisim.Phase{{
				Iterations:      20,
				SchedulingPoint: true,
				Tasks: []elastisim.Task{
					{Kind: job.TaskEvolvingRequest, Model: job.MustExprModel(
						"iteration < 5 ? 8 : (iteration < 15 ? 64 : 4)")},
					{Kind: job.TaskCompute, Model: job.MustExprModel("w / num_nodes")},
				},
			}}},
		}
		wl := &elastisim.Workload{Jobs: append(bg.Jobs, evolving)}
		wl.Sort()
		return []elastisim.Config{{
			Platform: StandardPlatform(stdNodes), Workload: wl,
			Algorithm: elastisim.NewAdaptive(),
			Options:   elastisim.Options{Trace: true},
		}}, nil
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		var rec *elastisim.JobRecord
		for _, r := range res[0].Records {
			if r.Name == "amr" {
				rec = r
			}
		}
		requests, grants, denies := 0, 0, 0
		for _, ev := range res[0].Trace {
			switch ev.Kind {
			case "evolving-request":
				requests++
			case "granted":
				grants++
			case "denied":
				denies++
			}
		}
		t.AddRow("requests issued", fmt.Sprintf("%d", requests))
		t.AddRow("requests granted", fmt.Sprintf("%d", grants))
		t.AddRow("requests denied", fmt.Sprintf("%d", denies))
		t.AddRow("initial nodes", fmt.Sprintf("%d", rec.InitialNodes))
		t.AddRow("peak nodes", fmt.Sprintf("%d", rec.PeakNodes))
		t.AddRow("final nodes", fmt.Sprintf("%d", rec.FinalNodes))
		t.AddRow("reconfigurations", fmt.Sprintf("%d", rec.Reconfigs))
		t.AddRow("runtime", f1(rec.Runtime()))
		t.AddNote("allocation follows the application's demand curve (8 -> up to 64 -> 4)")
	},
}

var e8Costs = []float64{0, 1, 10, 60, 300}

// e8 reproduces the reconfiguration-cost sensitivity table: the fully
// malleable workload with the per-reconfiguration cost forced to fixed
// values.
var e8 = Experiment{
	ID:     "E8",
	Title:  "sensitivity to reconfiguration cost (100% malleable, adaptive)",
	Header: []string{"cost_s", "makespan", "mean_turnaround", "utilization", "reconfigs"},
	Configs: func(seed uint64, jobs int) ([]elastisim.Config, error) {
		return each(len(e8Costs), func(i int) (elastisim.Config, error) {
			cfg, err := standardConfig(seed, jobs, 1, elastisim.NewAdaptive())
			if err != nil {
				return cfg, err
			}
			for _, j := range cfg.Workload.Jobs {
				j.ReconfigCost = job.ConstModel(e8Costs[i])
			}
			return cfg, nil
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			s := r.Summary
			t.AddRow(f1(e8Costs[i]), f1(s.Makespan), f1(s.MeanTurnaround), pct(s.Utilization),
				fmt.Sprintf("%d", s.Reconfigs))
		}
		first, last := res[0].Summary, res[len(res)-1].Summary
		t.AddNote("makespan degrades from %s to %s as reconfiguration cost grows 0 -> 300 s",
			f1(first.Makespan), f1(last.Makespan))
	},
}

var e9Networks = []struct {
	name     string
	uplinkBW float64 // 0 = star topology
}{
	{"star (non-blocking)", 0},
	{"tree 1:1", 16 * stdLinkBW},
	{"tree 1:4", 4 * stdLinkBW},
	{"tree 1:16", stdLinkBW},
}

// e9 reproduces a network-sensitivity figure: the same
// communication-heavy workload on a non-blocking star network versus tree
// topologies with increasingly tapered uplinks. Jobs spanning leaf
// switches contend on uplinks, so batch metrics degrade with the taper.
var e9 = Experiment{
	ID:     "E9",
	Title:  "network sensitivity: star vs tapered tree (comm-heavy workload, EASY)",
	Header: []string{"network", "makespan", "mean_turnaround", "mean_slowdown", "utilization"},
	Configs: func(seed uint64, jobs int) ([]elastisim.Config, error) {
		return each(len(e9Networks), func(i int) (elastisim.Config, error) {
			spec := StandardPlatform(stdNodes)
			if bw := e9Networks[i].uplinkBW; bw > 0 {
				spec.Network.Topology = platform.TopologyTree
				spec.Network.GroupSize = 16
				spec.Network.UplinkBandwidth = platform.Quantity(bw)
			}
			wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
				Name: "comm-heavy", Seed: seed, Count: jobs,
				Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 18},
				Nodes:        [2]int{2, 64},
				MachineNodes: stdNodes,
				NodeSpeed:    stdNodeSpeed,
				Profiles: []job.Profile{{
					Name: "halo", Weight: 1, Kind: job.ProfileComputeBound,
					Iterations:     [2]int{10, 30},
					ComputeSecs:    [2]float64{5, 20},
					CommBytes:      [2]float64{0.5e9, 4e9}, // heavy collectives
					IOBytes:        [2]float64{1e9, 8e9},
					SerialFraction: [2]float64{0.01, 0.05},
				}},
			})
			if err != nil {
				return elastisim.Config{}, err
			}
			// Alltoall exchanges stress cross-switch uplinks quadratically
			// (k*(n-k) per uplink vs n-1 per link); allreduce would hide the
			// taper entirely (its uplink weight, 2, never exceeds its link
			// weight).
			for _, j := range wl.Jobs {
				for pi := range j.App.Phases {
					for ti := range j.App.Phases[pi].Tasks {
						if j.App.Phases[pi].Tasks[ti].Kind == job.TaskComm {
							j.App.Phases[pi].Tasks[ti].Pattern = job.PatternAllToAll
						}
					}
				}
			}
			return elastisim.Config{Platform: spec, Workload: wl, Algorithm: elastisim.NewEASY()}, nil
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			s := r.Summary
			t.AddRow(e9Networks[i].name, f1(s.Makespan), f1(s.MeanTurnaround), f2(s.MeanSlowdown), pct(s.Utilization))
		}
		t.AddNote("tapering the uplinks stretches cross-switch collectives; a 1:16 taper visibly hurts turnaround")
	},
}
