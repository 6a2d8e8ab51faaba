// Quickstart: simulate a small cluster running a hand-written workload of
// one rigid and one malleable job, and print what happened.
//
// Run with: go run ./examples/quickstart
//
// Pass -trace-out quickstart.json to also write a Chrome trace_event span
// trace of the run; load it in Perfetto (ui.perfetto.dev) or
// chrome://tracing to see per-job and per-node timelines.
//
// Pass -step 300 to drive the same simulation through the Session API in
// bounded 300-second slices of virtual time, printing a live snapshot
// between slices. The sliced run produces the same results as the
// one-shot Run — slicing is invisible to the simulation.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"repro/elastisim"
	"repro/internal/job"
)

func main() {
	traceOut := flag.String("trace-out", "", "write a Chrome trace_event JSON span trace to this path")
	step := flag.Float64("step", 0, "drive the run through Session.RunUntil in slices of this many virtual seconds")
	flag.Parse()
	// A 16-node cluster: 100 Gflop/s nodes, 10 GB/s links, 40 GB/s PFS.
	platform := elastisim.HomogeneousPlatform("demo", 16, 100e9, 10e9, 40e9, 40e9)

	// A malleable solver: read input, iterate (compute + allreduce) with
	// scheduling points, write output. The compute model is Amdahl-limited
	// with a 2% serial fraction.
	solver := &elastisim.Job{
		Name: "solver", Type: elastisim.Malleable,
		NumNodesMin: 2, NumNodesMax: 16, NumNodes: 4,
		SubmitTime: 0,
		Args: map[string]float64{
			"flops_iter": 2e13, // per-iteration work
			"io":         20e9, // input/output volume
		},
		ReconfigCost: job.MustExprModel("0.5 + io/(num_nodes_new*10G)"),
		App: &elastisim.Application{Phases: []elastisim.Phase{
			{Name: "load", Tasks: []elastisim.Task{
				{Kind: job.TaskRead, Model: job.MustExprModel("io"), Target: job.TargetPFS},
			}},
			{Name: "solve", Iterations: 40, SchedulingPoint: true, Tasks: []elastisim.Task{
				{Kind: job.TaskCompute, Model: job.MustExprModel("flops_iter * (0.02 + 0.98/num_nodes)")},
				{Kind: job.TaskComm, Model: job.MustExprModel("64M"), Pattern: job.PatternAllReduce},
			}},
			{Name: "store", Tasks: []elastisim.Task{
				{Kind: job.TaskWrite, Model: job.MustExprModel("io"), Target: job.TargetPFS},
			}},
		}},
	}

	// A rigid 8-node job arriving two minutes in: the adaptive scheduler
	// shrinks the solver at its next scheduling point to admit it.
	batch := &elastisim.Job{
		Name: "batch", Type: elastisim.Rigid,
		NumNodes: 8, SubmitTime: 120, WallTimeLimit: 3600,
		Args: map[string]float64{"flops": 2e14},
		App: &elastisim.Application{Phases: []elastisim.Phase{{
			Tasks: []elastisim.Task{
				{Kind: job.TaskCompute, Model: job.MustExprModel("flops / num_nodes")},
			},
		}}},
	}

	workload := &elastisim.Workload{Name: "quickstart", Jobs: []*elastisim.Job{solver, batch}}
	workload.Sort()

	// The event log streams to stdout as the run writes it.
	fmt.Println("event log:")
	opts := elastisim.Options{Trace: func(ev elastisim.TraceEvent) { fmt.Println(" ", ev) }}
	var traceFile *os.File
	var tracer *elastisim.Tracer
	if *traceOut != "" {
		var err error
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			log.Fatal(err)
		}
		tracer = elastisim.NewTracer(elastisim.NewChromeTraceSink(traceFile))
		opts.Telemetry = tracer
	}

	cfg := elastisim.Config{
		Platform:  platform,
		Workload:  workload,
		Algorithm: elastisim.NewAdaptive(),
		Options:   opts,
	}
	var result *elastisim.Result
	var err error
	if *step > 0 {
		result, err = runStepped(cfg, *step)
	} else {
		result, err = elastisim.Run(cfg)
	}
	if err != nil {
		log.Fatal(err)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			log.Fatal(err)
		}
		if err := traceFile.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s (load in Perfetto or chrome://tracing)\n", *traceOut)
	}

	fmt.Printf("\nmakespan     %.1f s\n", result.Summary.Makespan)
	fmt.Printf("utilization  %.1f%%\n", result.Summary.Utilization*100)
	fmt.Printf("reconfigs    %d\n\n", result.Summary.Reconfigs)
	for _, r := range result.Records {
		fmt.Printf("%-8s wait %6.1f s  runtime %7.1f s  nodes %d->%d (peak %d, %d reconfigs)\n",
			r.Name, r.Wait(), r.Runtime(), r.InitialNodes, r.FinalNodes, r.PeakNodes, r.Reconfigs)
	}

	fmt.Println("\nallocation timeline (busy nodes):")
	if err := result.Recorder.BusyTimeline().WriteCSV(os.Stdout, "busy"); err != nil {
		log.Fatal(err)
	}
}

// runStepped drives the simulation through the Session lifecycle API in
// bounded slices of virtual time, peeking at live state between slices.
func runStepped(cfg elastisim.Config, slice float64) (*elastisim.Result, error) {
	s, err := elastisim.NewSession(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Fprintln(os.Stderr, "stepping:  sim time   events  queued  running  completed")
	for bound := slice; ; bound += slice {
		reason, err := s.RunUntil(context.Background(), bound)
		if err != nil {
			return nil, err
		}
		p := s.Peek()
		fmt.Fprintf(os.Stderr, "          %8.0f s  %6d  %6d  %7d  %5d/%d\n",
			p.Now, p.Events, p.Queued, p.Running, p.Completed, p.Total)
		if reason == elastisim.AbortDrained {
			break
		}
	}
	return s.Result()
}
