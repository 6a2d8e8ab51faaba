// Workflow example: a preprocessing -> (4x parallel sweep) -> reduce
// pipeline expressed with job dependencies, run on a tapered tree
// topology with locality-packed placement. Demonstrates:
//
//   - "dependencies": jobs held until their predecessors finish;
//   - tree topologies where cross-switch collectives cost extra;
//   - the packed placement wrapper keeping jobs inside leaf switches.
//
// Run with: go run ./examples/workflow
package main

import (
	"fmt"
	"log"

	"repro/elastisim"
	"repro/internal/job"
	"repro/internal/platform"
)

func computePhase(flopsExpr string, comm string) []elastisim.Phase {
	return []elastisim.Phase{{
		Name:       "work",
		Iterations: 10,
		Tasks: []elastisim.Task{
			{Kind: job.TaskCompute, Model: job.MustExprModel(flopsExpr)},
			{Kind: job.TaskComm, Model: job.MustExprModel(comm), Pattern: job.PatternAllToAll},
		},
	}}
}

func main() {
	// 32 nodes in groups of 8 with a 1:4 tapered uplink.
	spec := elastisim.HomogeneousPlatform("cluster", 32, 100e9, 10e9, 40e9, 40e9)
	spec.Network.Topology = platform.TopologyTree
	spec.Network.GroupSize = 8
	spec.Network.UplinkBandwidth = 20e9

	// Stage 1: preprocess the input (wide I/O + compute).
	prep := &elastisim.Job{
		Name: "prep", Type: elastisim.Rigid, NumNodes: 8,
		Args: map[string]float64{"io": 64e9},
		App: &elastisim.Application{Phases: []elastisim.Phase{
			{Name: "load", Tasks: []elastisim.Task{
				{Kind: job.TaskRead, Model: job.MustExprModel("io"), Target: job.TargetPFS},
			}},
			{Name: "clean", Tasks: []elastisim.Task{
				{Kind: job.TaskCompute, Model: job.MustExprModel("2T / num_nodes")},
				{Kind: job.TaskWrite, Model: job.MustExprModel("io"), Target: job.TargetPFS},
			}},
		}},
	}

	// Stage 2: four parameter-sweep members, each gated on prep.
	jobs := []*elastisim.Job{prep}
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("sweep%d", i)
		jobs = append(jobs, &elastisim.Job{
			Name: name, Type: elastisim.Rigid, NumNodes: 8,
			Dependencies: []job.ID{0}, // prep
			App: &elastisim.Application{
				Phases: computePhase("8T / num_nodes", "256M"),
			},
		})
	}

	// Stage 3: reduce, gated on every sweep member.
	reduce := &elastisim.Job{
		Name: "reduce", Type: elastisim.Rigid, NumNodes: 16,
		Dependencies: []job.ID{1, 2, 3, 4},
		Args:         map[string]float64{"io": 16e9},
		App: &elastisim.Application{Phases: []elastisim.Phase{
			{Name: "combine", Tasks: []elastisim.Task{
				{Kind: job.TaskComm, Model: job.MustExprModel("2G"), Pattern: job.PatternGather},
				{Kind: job.TaskCompute, Model: job.MustExprModel("1T / num_nodes")},
				{Kind: job.TaskWrite, Model: job.MustExprModel("io"), Target: job.TargetPFS},
			}},
		}},
	}
	jobs = append(jobs, reduce)

	for i, j := range jobs {
		j.ID = job.ID(i)
	}
	workload := &elastisim.Workload{Name: "pipeline", Jobs: jobs}
	workload.Sort()

	// The event log streams to stdout as the run writes it.
	fmt.Println("event log (held/released entries show the dependency gating):")
	logEvent := func(ev elastisim.TraceEvent) {
		if ev.Kind == "held" || ev.Kind == "released" || ev.Kind == "start" || ev.Kind == "finish" {
			fmt.Println(" ", ev)
		}
	}
	result, err := elastisim.Run(elastisim.Config{
		Platform:  spec,
		Workload:  workload,
		Algorithm: elastisim.NewPacked(), // locality-aware EASY
		Options:   elastisim.Options{Trace: logEvent},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\npipeline makespan %.1f s, utilization %.1f%%\n\n",
		result.Summary.Makespan, result.Summary.Utilization*100)
	fmt.Println("job      submit   start     end      (held until dependencies finished)")
	for _, r := range result.Records {
		fmt.Printf("%-8s %7.1f  %7.1f  %7.1f\n", r.Name, r.Submit, r.Start, r.End)
	}
}
