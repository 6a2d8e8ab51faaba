package main

import (
	"math"

	"repro/elastisim"
	"repro/internal/job"
)

// simSpec is one simulation workload: everything needed to build an
// elastisim.Config from a seed.
type simSpec struct {
	nodes    int
	jobs     int
	algo     string
	build    func(sp simSpec, seed uint64) (*elastisim.Workload, error)
	platform func(nodes int) *elastisim.PlatformSpec
	options  elastisim.Options
	failures func(seed uint64) *elastisim.FailureSpec
}

func stdPlatform(nodes int) *elastisim.PlatformSpec {
	return elastisim.HomogeneousPlatform("bench", nodes, 100e9, 10e9, 80e9, 60e9)
}

func generated(rate func(nodes int) float64, malleable float64, profiles []job.Profile, ckpt string) func(simSpec, uint64) (*elastisim.Workload, error) {
	return func(sp simSpec, seed uint64) (*elastisim.Workload, error) {
		shares := map[job.Type]float64{}
		if malleable < 1 {
			shares[job.Rigid] = 1 - malleable
		}
		if malleable > 0 {
			shares[job.Malleable] = malleable
		}
		return elastisim.GenerateWorkload(elastisim.WorkloadConfig{
			Name: "bench", Seed: seed, Count: sp.jobs,
			Arrival:            job.Arrival{Kind: job.ArrivalPoisson, Rate: rate(sp.nodes)},
			Nodes:              [2]int{2, min(64, sp.nodes)},
			MachineNodes:       sp.nodes,
			NodeSpeed:          100e9,
			TypeShares:         shares,
			Profiles:           profiles,
			CheckpointInterval: ckpt,
		})
	}
}

func per(div float64) func(int) float64 {
	return func(nodes int) float64 { return float64(nodes) / div }
}

var simSpecs = map[string]simSpec{
	"rigid_xl": {
		nodes: 10000, jobs: 200000, algo: "firstfit",
		build: buildXL,
		platform: func(n int) *elastisim.PlatformSpec {
			return elastisim.HomogeneousPlatform("xl", n, 1e12, 1e10, 1e11, 1e11)
		},
		options: elastisim.Options{InvocationInterval: 30, DisableEventDriven: true},
	},
	"malleable_pfs": {
		nodes: 1024, jobs: 3000, algo: "adaptive",
		build: generated(per(1200), 0.5, job.DefaultProfiles()[1:], ""),
		platform: func(n int) *elastisim.PlatformSpec {
			return elastisim.HomogeneousPlatform("pfs", n, 100e9, 10e9, 20e9, 15e9)
		},
	},
	"deep_queue": {
		nodes: 512, jobs: 400, algo: "conservative",
		build:    generated(per(600), 0, nil, ""),
		platform: stdPlatform,
	},
	"failures_shrink": {
		nodes: 1024, jobs: 5000, algo: "adaptive",
		build:    generated(per(2304), 0.5, nil, "300"),
		platform: stdPlatform,
		failures: func(seed uint64) *elastisim.FailureSpec {
			return &elastisim.FailureSpec{
				Model: elastisim.FailureExponential, Seed: seed,
				MTBF: 20000, MTTR: 600, Recovery: elastisim.RecoverShrink,
			}
		},
	},
}

func (sp simSpec) config(seed uint64) (elastisim.Config, error) {
	wl, err := sp.build(sp, seed)
	if err != nil {
		return elastisim.Config{}, err
	}
	algo, err := elastisim.NewAlgorithm(sp.algo)
	if err != nil {
		return elastisim.Config{}, err
	}
	cfg := elastisim.Config{Platform: sp.platform(sp.nodes), Workload: wl, Algorithm: algo, Options: sp.options}
	if sp.failures != nil {
		cfg.Failures = sp.failures(seed)
	}
	return cfg, nil
}

// buildXL is the cmd/benchxl generator: small rigid single-phase jobs
// sharing three application templates, Poisson arrivals at 7 jobs/s.
func buildXL(sp simSpec, seed uint64) (*elastisim.Workload, error) {
	var apps [3]*job.Application
	for iters := 1; iters <= 3; iters++ {
		apps[iters-1] = &job.Application{Phases: []job.Phase{{
			Name: "main", Iterations: iters,
			Tasks: []job.Task{{Kind: job.TaskCompute, Name: "compute", Model: job.MustExprModel("flops")}},
		}}}
	}
	rng := splitmix(seed)
	js := make([]*job.Job, 0, sp.jobs)
	now := 0.0
	for i := 0; i < sp.jobs; i++ {
		now += -math.Log(1-rng.f64()) / 7
		iters := 1 + int(rng.next()%3)
		target := 100 + 800*rng.f64()
		js = append(js, &job.Job{
			ID: job.ID(i), Type: job.Rigid, SubmitTime: now,
			NumNodes: 1 << (rng.next() % 3),
			Args:     map[string]float64{"flops": target / float64(iters) * 1e12},
			App:      apps[iters-1],
		})
	}
	w := &elastisim.Workload{Jobs: js}
	w.Sort()
	return w, nil
}

type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) f64() float64 { return float64(s.next()>>11) / (1 << 53) }
