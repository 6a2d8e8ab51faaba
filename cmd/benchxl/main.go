// Command benchxl measures end-to-end simulator throughput at extreme
// scale: a 10k-node cluster working through up to a million small jobs.
// It is the harness behind the BENCH_3.json scaling curve, so the
// workload construction is deliberately self-contained and deterministic
// — the same binary built from two revisions produces the identical
// workload and can be compared wall-clock to wall-clock.
//
// The scheduler runs in periodic-only mode (event-driven invocations
// disabled): at a million jobs the interesting cost is the kernel and
// the per-job bookkeeping, not the O(pending) scheduler snapshots that
// per-completion invocations would force. The interval is configurable
// so both regimes can be measured.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/elastisim"
	"repro/internal/job"
)

func main() {
	nodes := flag.Int("nodes", 10000, "cluster size")
	jobs := flag.Int("jobs", 1000000, "number of jobs")
	interval := flag.Float64("interval", 30, "periodic scheduler invocation interval (seconds)")
	eventDriven := flag.Bool("event-driven", false, "also invoke the scheduler on job events (slower at scale)")
	algo := flag.String("algo", "firstfit", "scheduling algorithm")
	seed := flag.Int64("seed", 1, "workload seed")
	rate := flag.Float64("rate", 7, "mean job arrival rate (jobs per simulated second)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
	flag.Parse()

	alg, err := elastisim.NewAlgorithm(*algo)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	genStart := time.Now()
	w := buildWorkload(*jobs, *nodes, *rate, *seed)
	genWall := time.Since(genStart)

	cfg := elastisim.Config{
		Platform:  elastisim.HomogeneousPlatform("xl", *nodes, 1e12, 1e10, 1e11, 1e11),
		Workload:  w,
		Algorithm: alg,
		Options: elastisim.Options{
			InvocationInterval: *interval,
			DisableEventDriven: !*eventDriven,
		},
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		pprof.StartCPUProfile(f)
		defer pprof.StopCPUProfile()
	}
	var ms runtime.MemStats
	res, err := elastisim.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runtime.ReadMemStats(&ms)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}

	fmt.Printf("jobs=%d nodes=%d algo=%s interval=%gs event_driven=%v\n",
		*jobs, *nodes, *algo, *interval, *eventDriven)
	fmt.Printf("generate_wall=%.3fs\n", genWall.Seconds())
	fmt.Printf("sim_wall=%.3fs\n", res.WallClock.Seconds())
	fmt.Printf("events=%d invocations=%d decisions=%d\n", res.Events, res.Invocations, res.Decisions)
	fmt.Printf("events_per_sec=%.0f jobs_per_sec=%.0f\n",
		float64(res.Events)/res.WallClock.Seconds(),
		float64(*jobs)/res.WallClock.Seconds())
	fmt.Printf("makespan=%.0fs completed=%d peak_heap_mb=%.0f\n",
		res.Summary.Makespan, len(res.Records), float64(ms.HeapSys)/(1<<20))
}

// buildWorkload synthesizes small, mostly-rigid jobs with a shared set of
// application templates. Sharing the templates matters twice over: parsing
// a model expression per job would dominate generation at 1M jobs, and the
// engine treats applications as immutable so the sharing is free.
func buildWorkload(n, totalNodes int, rate float64, seed int64) *elastisim.Workload {
	apps := appTemplates()
	rng := splitmix(uint64(seed))
	js := make([]*job.Job, 0, n)
	now := 0.0
	for i := 0; i < n; i++ {
		// Exponential inter-arrival at the requested mean rate.
		now += -math.Log(1-rng.f64()) / rate
		iters := 1 + int(rng.next()%3)
		nodesWanted := 1 << (rng.next() % 3) // 1, 2, or 4 nodes
		if nodesWanted > totalNodes {
			nodesWanted = totalNodes
		}
		// Target runtime 100–900 s on the assigned nodes; the model burns
		// per-node flops, so scale by node count and iterations.
		target := 100 + 800*rng.f64()
		flops := target / float64(iters) * 1e12
		j := &job.Job{
			ID:         job.ID(i),
			Type:       job.Rigid,
			SubmitTime: now,
			NumNodes:   nodesWanted,
			Args:       map[string]float64{"flops": flops},
			App:        apps[iters-1],
		}
		js = append(js, j)
	}
	w := &elastisim.Workload{Jobs: js}
	w.Sort()
	return w
}

// appTemplates returns one shared application per iteration count (1..3):
// a single compute phase whose per-node flop count comes from the job's
// "flops" argument.
func appTemplates() [3]*job.Application {
	var apps [3]*job.Application
	for iters := 1; iters <= 3; iters++ {
		apps[iters-1] = &job.Application{Phases: []job.Phase{{
			Name:       "main",
			Iterations: iters,
			Tasks: []job.Task{{
				Kind:  job.TaskCompute,
				Name:  "compute",
				Model: job.MustExprModel("flops"),
			}},
		}}}
	}
	return apps
}

// splitmix64: tiny deterministic RNG so the workload is identical across
// revisions regardless of math/rand changes.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix) f64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}
