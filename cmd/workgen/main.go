// Command workgen generates reproducible synthetic workloads in the
// simulator's JSON format.
//
// Usage:
//
//	workgen -count 200 -seed 7 -machine-nodes 128 -malleable 0.5 > jobs.json
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"

	"repro/elastisim"
	"repro/internal/cli"
	"repro/internal/job"
)

func main() { cli.Main("workgen", run) }

func run(ctx context.Context) error {
	var (
		count     = flag.Int("count", 100, "number of jobs")
		seed      = flag.Uint64("seed", 1, "generator seed")
		nodes     = flag.Int("machine-nodes", 128, "machine size (caps allocations)")
		minNodes  = flag.Int("min-nodes", 2, "smallest base allocation (power of two)")
		maxNodes  = flag.Int("max-nodes", 64, "largest base allocation (power of two)")
		nodeSpeed = flag.Float64("node-speed", 100e9, "node speed in flops/s")
		rate      = flag.Float64("rate", 1.0/18, "Poisson arrival rate (jobs/s)")
		arrival   = flag.String("arrival", "poisson", "arrival process: poisson, weibull, uniform, all")
		shape     = flag.Float64("weibull-shape", 0.7, "Weibull shape (with -arrival weibull)")
		scale     = flag.Float64("weibull-scale", 20, "Weibull scale (with -arrival weibull)")
		rigid     = flag.Float64("rigid", 0.5, "share of rigid jobs")
		moldable  = flag.Float64("moldable", 0, "share of moldable jobs")
		malleable = flag.Float64("malleable", 0.5, "share of malleable jobs")
		evolving  = flag.Float64("evolving", 0, "share of evolving jobs")
		bbTarget  = flag.Bool("bb-checkpoints", false, "direct checkpoints to burst buffers instead of the PFS")
		ckpt      = flag.String("checkpoint-interval", "", "checkpoint-interval expression in seconds tagged onto every job (e.g. \"300\"; empty = no restart checkpoints)")
		name      = flag.String("name", "synthetic", "workload name")
	)
	flag.Parse()

	shares := map[job.Type]float64{}
	for t, v := range map[job.Type]float64{
		job.Rigid: *rigid, job.Moldable: *moldable,
		job.Malleable: *malleable, job.Evolving: *evolving,
	} {
		if v > 0 {
			shares[t] = v
		}
	}
	target := job.TargetPFS
	if *bbTarget {
		target = job.TargetBB
	}
	cfg := elastisim.WorkloadConfig{
		Name:  *name,
		Seed:  *seed,
		Count: *count,
		Arrival: job.Arrival{
			Kind:  job.ArrivalKind(*arrival),
			Rate:  *rate,
			Shape: *shape,
			Scale: *scale,
		},
		Nodes:              [2]int{*minNodes, *maxNodes},
		MachineNodes:       *nodes,
		NodeSpeed:          *nodeSpeed,
		TypeShares:         shares,
		CheckpointTarget:   target,
		CheckpointInterval: *ckpt,
	}
	// Jobs are written one by one, so memory stays flat no matter the count.
	s, err := elastisim.NewWorkloadStream(cfg)
	if err != nil {
		return cli.Usagef("%v", err) // every field of cfg is a flag
	}
	out := bufio.NewWriterSize(os.Stdout, 1<<20)
	ww := job.NewWorkloadWriter(out, cfg.Name)
	counts := map[job.Type]int{}
	n := 0
	for {
		j, err := s.Next()
		if err != nil {
			return err
		}
		if j == nil {
			break
		}
		if err := ww.WriteJob(j); err != nil {
			return err
		}
		counts[j.Type]++
		n++
	}
	if err := ww.Close(); err != nil {
		return err
	}
	fmt.Fprintln(out)
	if err := out.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "workgen: %d jobs (%v)\n", n, counts)
	return nil
}
