// Custom scheduling algorithm: shows how to plug user code into the
// simulator. The example implements "WidestFirst", a policy that starts
// the widest fitting pending job first (maximizing immediate utilization)
// and greedily expands malleable jobs, then compares it against the
// built-in algorithms on the same workload.
//
// Run with: go run ./examples/customsched
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/elastisim"
	"repro/internal/job"
	"repro/internal/sched"
)

// WidestFirst starts pending jobs widest-first and expands any malleable
// job at a scheduling point to its maximum if nodes are free. It
// demonstrates the Algorithm interface; it is deliberately simple (no
// reservations), so narrow jobs can starve under sustained wide load.
type WidestFirst struct{}

// Name implements elastisim.Algorithm.
func (WidestFirst) Name() string { return "widest-first" }

// Schedule implements elastisim.Algorithm.
func (WidestFirst) Schedule(inv *elastisim.Invocation) []elastisim.Decision {
	free := inv.FreeNodes
	var out []elastisim.Decision

	// Widest fitting jobs first; ties by submission order.
	pending := make([]*elastisim.JobView, len(inv.Pending))
	copy(pending, inv.Pending)
	sort.SliceStable(pending, func(i, j int) bool {
		return pending[i].MinNodes > pending[j].MinNodes
	})
	for _, v := range pending {
		n := sched.RequestedSize(v, free)
		if n == 0 {
			continue // unlike FCFS, keep trying narrower jobs
		}
		out = append(out, sched.Start(v.ID, n))
		free -= n
	}

	// Greedy expansion of whoever is at a scheduling point, in running
	// order.
	for _, v := range inv.Running {
		if free == 0 {
			break
		}
		if v.Type != job.Malleable || !v.AtSchedulingPoint {
			continue
		}
		target := v.Nodes + free
		if maxN := v.MaxNodes; target > maxN {
			target = maxN
		}
		if target > v.Nodes {
			out = append(out, sched.Resize(v.ID, target))
			free -= target - v.Nodes
		}
	}
	return out
}

func main() {
	platform := elastisim.HomogeneousPlatform("cluster", 128, 100e9, 10e9, 80e9, 60e9)
	gen := func() *elastisim.Workload {
		w, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
			Name: "mix", Seed: 9, Count: 120,
			Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 18},
			Nodes:        [2]int{2, 64},
			MachineNodes: 128,
			NodeSpeed:    100e9,
			TypeShares:   map[job.Type]float64{job.Rigid: 0.5, job.Malleable: 0.5},
		})
		if err != nil {
			log.Fatal(err)
		}
		return w
	}

	algos := []elastisim.Algorithm{
		elastisim.NewFCFS(),
		elastisim.NewEASY(),
		elastisim.NewAdaptive(),
		WidestFirst{},
	}
	fmt.Println("algorithm     makespan    mean_wait  p95_wait   utilization")
	fmt.Println("------------  ----------  ---------  ---------  -----------")
	for _, algo := range algos {
		result, err := elastisim.Run(elastisim.Config{
			Platform:  platform,
			Workload:  gen(),
			Algorithm: algo,
		})
		if err != nil {
			log.Fatal(err)
		}
		s := result.Summary
		fmt.Printf("%-12s  %9.1fs  %8.1fs  %8.1fs  %10.1f%%\n",
			algo.Name(), s.Makespan, s.MeanWait, s.P95Wait, s.Utilization*100)
	}
	fmt.Println("\nWidestFirst packs the machine aggressively but, without EASY's")
	fmt.Println("reservations, lets wide jobs starve narrow ones on wait time.")
}
