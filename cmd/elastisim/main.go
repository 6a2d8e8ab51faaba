// Command elastisim runs one batch-system simulation from a platform and a
// workload description and reports batch metrics.
//
// Usage:
//
//	elastisim -platform cluster.json -workload jobs.json [-algorithm adaptive]
//	          [-interval 0] [-jobs-csv jobs.csv] [-util-csv util.csv]
//	          [-gantt gantt.json] [-trace] [-v]
//	elastisim -config combined.json [-result-json result.json]
//
// -config accepts the combined document elastisimd serves (platform,
// workload, algorithm, failures, and options in one JSON file);
// -result-json writes the canonical deterministic result document, which
// is byte-comparable with the daemon's /result artifact for the same
// config.
//
// Observability flags: -trace-out streams a Chrome trace_event JSON file
// (load it in Perfetto or chrome://tracing), -trace-jsonl a line-delimited
// variant, -audit-out the scheduler decision audit, -telemetry-out the
// self-profiling snapshot; -progress prints a live stderr ticker, and
// -cpuprofile/-memprofile write pprof profiles.
//
// The platform and workload JSON formats are documented in the README;
// `elastisim -print-formats` prints commented examples.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/elastisim"
	"repro/internal/cli"
	"repro/internal/extsched"
	"repro/internal/unit"
)

func main() { cli.Main("elastisim", run) }

func run(ctx context.Context) error {
	var (
		configPath   = flag.String("config", "", "combined config JSON (platform, workload, algorithm, options in one document); replaces -platform/-workload/-algorithm")
		platformPath = flag.String("platform", "", "platform JSON file (required unless -config)")
		workloadPath = flag.String("workload", "", "workload JSON file (required unless -config or -swf)")
		swfPath      = flag.String("swf", "", "SWF trace instead of a JSON workload")
		swfSpeed     = flag.Float64("swf-node-speed", 100e9, "node speed (flops/s) for SWF calibration")
		swfCores     = flag.Int("swf-cores-per-node", 1, "cores per node for SWF processor counts")
		swfMaxJobs   = flag.Int("swf-max-jobs", 0, "truncate the SWF trace (0 = all)")
		swfMalleable = flag.Float64("swf-malleable", 0, "fraction of SWF jobs converted to malleable")
		algoName     = flag.String("algorithm", "adaptive", "scheduling algorithm: "+strings.Join(elastisim.AlgorithmNames(), ", "))
		external     = flag.String("external", "", "run an external scheduler process (command line) speaking the JSON stdio protocol; overrides -algorithm")
		interval     = flag.Float64("interval", 0, "periodic scheduler invocation interval in seconds (0 = event-driven only)")
		periodicOnly = flag.Bool("periodic-only", false, "disable event-driven invocations (requires -interval)")
		resultJSON   = flag.String("result-json", "", "write the canonical result JSON document to this path")
		jobsCSV      = flag.String("jobs-csv", "", "write per-job results CSV to this path")
		utilCSV      = flag.String("util-csv", "", "write the busy-nodes timeline CSV to this path")
		ganttJSON    = flag.String("gantt", "", "write allocation segments JSON to this path")
		ganttSVG     = flag.String("gantt-svg", "", "write an SVG Gantt chart to this path")
		utilSVG      = flag.String("util-svg", "", "write an SVG utilization plot to this path")
		swfOut       = flag.String("swf-out", "", "export per-job results as an SWF trace to this path")
		swfOutCores  = flag.Int("swf-out-cores", 1, "cores per node for -swf-out processor counts")
		trace        = flag.Bool("trace", false, "print the engine event log as the run writes it, one line per event, ahead of the summary (also on for a -config document with \"trace\": true)")
		traceOut     = flag.String("trace-out", "", "write a Chrome trace_event JSON span trace to this path")
		traceJSONL   = flag.String("trace-jsonl", "", "write a JSONL span trace to this path")
		auditOut     = flag.String("audit-out", "", "write the scheduler decision audit (JSONL) to this path")
		telemetryOut = flag.String("telemetry-out", "", "write the self-profiling snapshot JSON to this path")
		progress     = flag.Bool("progress", false, "print a live progress ticker to stderr")
		cpuProfile   = flag.String("cpuprofile", "", "write a pprof CPU profile to this path")
		memProfile   = flag.String("memprofile", "", "write a pprof heap profile to this path")
		verbose      = flag.Bool("v", false, "print per-job results")
		printFormats = flag.Bool("print-formats", false, "print example platform and workload files and exit")
	)
	flag.Parse()

	if *printFormats {
		fmt.Print(formatExamples)
		return nil
	}
	if *configPath == "" && (*platformPath == "" || (*workloadPath == "" && *swfPath == "")) {
		flag.Usage()
		return cli.ErrUsage
	}

	var (
		spec     *elastisim.PlatformSpec
		wl       *elastisim.Workload
		algo     elastisim.Algorithm
		failures *elastisim.FailureSpec
		opts     elastisim.Options
		extProc  *extsched.Process
		err      error
	)
	if *configPath != "" {
		// A combined document — the same format elastisimd accepts —
		// carries platform, workload, algorithm, failures, and engine
		// options in one file. CLI observability flags still apply.
		data, rerr := os.ReadFile(*configPath)
		if rerr != nil {
			return rerr
		}
		cfg, perr := elastisim.ParseConfig(data)
		if perr != nil {
			return perr
		}
		spec, wl, algo, failures, opts = cfg.Platform, cfg.Workload, cfg.Algorithm, cfg.Failures, cfg.Options
	} else {
		spec, err = elastisim.LoadPlatform(*platformPath)
		if err != nil {
			return err
		}
		if *swfPath != "" {
			wl, err = elastisim.LoadSWF(*swfPath, elastisim.SWFOptions{
				NodeSpeed:         *swfSpeed,
				CoresPerNode:      *swfCores,
				MaxJobs:           *swfMaxJobs,
				MaxNodes:          spec.TotalNodes(),
				MalleableFraction: *swfMalleable,
			})
		} else {
			wl, err = elastisim.LoadWorkload(*workloadPath, spec.TotalNodes())
		}
		if err != nil {
			return err
		}
		opts = elastisim.Options{
			InvocationInterval: *interval,
			DisableEventDriven: *periodicOnly,
		}
	}
	if *external != "" {
		extProc, err = extsched.StartProcess(strings.Fields(*external))
		if err != nil {
			return err
		}
		algo = extProc
	} else if algo == nil {
		algo, err = elastisim.NewAlgorithm(*algoName)
		if err != nil {
			return err
		}
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}

	tracer, closeTel, err := setupTelemetry(*traceOut, *traceJSONL, *auditOut)
	if err != nil {
		return err
	}
	opts.Telemetry = tracer
	// The event log streams to stdout as the run writes it; nothing keeps
	// it, and a run that fails still shows the events up to the failure.
	var eventLog *bufio.Writer
	if *trace || opts.Trace != nil {
		eventLog = bufio.NewWriter(os.Stdout)
		opts.Trace = func(ev elastisim.TraceEvent) {
			eventLog.WriteString(ev.String())
			eventLog.WriteByte('\n')
		}
	}
	session, err := elastisim.NewSession(elastisim.Config{
		Platform:  spec,
		Workload:  wl,
		Algorithm: algo,
		Failures:  failures,
		Options:   opts,
	})
	if err != nil {
		closeTel()
		return err
	}
	stopProgress := func() {}
	if *progress {
		stopProgress = watchProgress(session, &elastisim.RunProgress{W: os.Stderr, Label: "sim"})
	}
	res, err := session.Run(ctx)
	stopProgress()
	if eventLog != nil {
		// A blank line sets the events apart from the summary.
		eventLog.WriteByte('\n')
		if ferr := eventLog.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}
	// On Ctrl-C the session returns the partial result alongside ctx.Err():
	// flush every requested artifact from it, then exit 130.
	var cancelErr error
	if err != nil && res != nil && errors.Is(err, ctx.Err()) {
		cancelErr = err
	}
	if cerr := closeTel(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil && cancelErr == nil {
		return err
	}
	if cancelErr != nil {
		p := session.Peek()
		fmt.Fprintf(os.Stderr, "elastisim: cancelled at sim time %.1f s after %d events (%d/%d jobs finished); writing partial results\n",
			p.Now, p.Events, p.Completed, p.Total)
	}
	if *telemetryOut != "" {
		if err := writeFile(*telemetryOut, res.Telemetry.WriteJSON); err != nil {
			return err
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return err
		}
		f.Close()
	}
	if extProc != nil {
		if cerr := extProc.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "warning: external scheduler:", cerr)
		}
	}

	s := res.Summary
	fmt.Printf("platform      %s (%d nodes)\n", spec.Name, spec.TotalNodes())
	fmt.Printf("workload      %s (%d jobs)\n", wl.Name, len(wl.Jobs))
	fmt.Printf("algorithm     %s\n", algo.Name())
	fmt.Printf("makespan      %.1f s (%s)\n", s.Makespan, unit.FormatSeconds(s.Makespan))
	fmt.Printf("utilization   %.1f%%\n", s.Utilization*100)
	fmt.Printf("completed     %d (killed %d)\n", s.Completed, s.Killed)
	if res.Abort != elastisim.AbortDrained {
		fmt.Printf("stopped       %s with %d of %d jobs unfinished\n",
			res.Abort, len(wl.Jobs)-s.Completed-s.Killed, len(wl.Jobs))
	}
	if s.Killed > 0 {
		fmt.Printf("  walltime %d, by scheduler %d, node failure %d\n",
			s.KilledWalltime, s.KilledByScheduler, s.FailedNode)
	}
	if s.NodeFailures > 0 {
		fmt.Printf("failures      %d node failures, %d requeues\n", s.NodeFailures, s.Requeues)
		fmt.Printf("badput        %.1f node-s (goodput %.1f node-s)\n",
			s.BadputNodeSeconds, s.GoodputNodeSeconds)
		fmt.Printf("availability  %.2f%% (%.1f down node-s)\n", s.Availability*100, s.DownNodeSeconds)
	}
	fmt.Printf("mean wait     %.1f s   p95 %.1f s\n", s.MeanWait, s.P95Wait)
	fmt.Printf("mean turnaround %.1f s\n", s.MeanTurnaround)
	fmt.Printf("mean slowdown %.2f   max %.2f\n", s.MeanSlowdown, s.MaxSlowdown)
	fmt.Printf("reconfigs     %d\n", s.Reconfigs)
	fmt.Printf("sim events    %d in %v (%.0f events/s)\n",
		res.Events, res.WallClock, float64(res.Events)/res.WallClock.Seconds())

	if *verbose {
		fmt.Println()
		if err := res.Recorder.WriteJobsCSV(os.Stdout); err != nil {
			return err
		}
	}
	for _, w := range res.Warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
	if *resultJSON != "" {
		if err := writeFile(*resultJSON, res.WriteJSON); err != nil {
			return err
		}
	}
	if *jobsCSV != "" {
		if err := writeFile(*jobsCSV, res.Recorder.WriteJobsCSV); err != nil {
			return err
		}
	}
	if *utilCSV != "" {
		if err := writeFile(*utilCSV, func(w io.Writer) error {
			return res.Recorder.BusyTimeline().WriteCSV(w, "busy_nodes")
		}); err != nil {
			return err
		}
	}
	if *ganttJSON != "" {
		if err := writeFile(*ganttJSON, res.Recorder.WriteGanttJSON); err != nil {
			return err
		}
	}
	if *ganttSVG != "" {
		title := fmt.Sprintf("%s on %s (%s)", wl.Name, spec.Name, algo.Name())
		if err := writeFile(*ganttSVG, func(w io.Writer) error {
			return res.WriteGanttSVG(w, title)
		}); err != nil {
			return err
		}
	}
	if *utilSVG != "" {
		if err := writeFile(*utilSVG, func(w io.Writer) error {
			return res.WriteUtilizationSVG(w, "cluster utilization")
		}); err != nil {
			return err
		}
	}
	if *swfOut != "" {
		if err := writeFile(*swfOut, func(w io.Writer) error {
			return res.Recorder.WriteSWF(w, *swfOutCores)
		}); err != nil {
			return err
		}
	}
	return cancelErr
}

// setupTelemetry builds a tracer streaming to the requested artifact files.
// With all paths empty it returns a nil tracer (telemetry fully disabled)
// and a no-op closer.
func setupTelemetry(chromePath, jsonlPath, auditPath string) (*elastisim.Tracer, func() error, error) {
	if chromePath == "" && jsonlPath == "" && auditPath == "" {
		return nil, func() error { return nil }, nil
	}
	var sinks []elastisim.TelemetrySink
	var files []*os.File
	open := func(path string) (*os.File, error) {
		f, err := os.Create(path)
		if err != nil {
			for _, g := range files {
				g.Close()
			}
			return nil, err
		}
		files = append(files, f)
		return f, nil
	}
	if chromePath != "" {
		f, err := open(chromePath)
		if err != nil {
			return nil, nil, err
		}
		sinks = append(sinks, elastisim.NewChromeTraceSink(f))
	}
	if jsonlPath != "" {
		f, err := open(jsonlPath)
		if err != nil {
			return nil, nil, err
		}
		sinks = append(sinks, elastisim.NewJSONLTraceSink(f))
	}
	tracer := elastisim.NewTracer(sinks...)
	var audit *elastisim.AuditLog
	if auditPath != "" {
		f, err := open(auditPath)
		if err != nil {
			return nil, nil, err
		}
		audit = elastisim.NewAuditLog(f)
		tracer.SetAudit(audit)
	}
	closer := func() error {
		err := tracer.Close()
		if audit != nil {
			if cerr := audit.Close(); err == nil {
				err = cerr
			}
		}
		for _, f := range files {
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		return err
	}
	return tracer, closer, nil
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Both example documents below are valid files: paste them as-is.
// Comment lines start with '#'; everything between the markers is JSON.
const examplePlatform = `{
  "name": "cluster",
  "nodes": [{"count": 128, "speed": "100G"}],
  "network": {
    "topology": "star",
    "link_bandwidth": "10G",
    "latency": 1e-6
  },
  "pfs": {"read_bandwidth": "80G", "write_bandwidth": "60G"},
  "burst_buffer": {
    "kind": "node_local",
    "read_bandwidth": "4G",
    "write_bandwidth": "4G"
  },
  "failures": {
    "model": "weibull",
    "seed": 7,
    "mtbf": "100k",
    "mttr": 600,
    "recovery": "shrink"
  }
}
`

const exampleWorkload = `{
  "name": "demo",
  "jobs": [{
    "name": "sim0",
    "type": "malleable",
    "submit_time": 0,
    "num_nodes_min": 4,
    "num_nodes_max": 32,
    "walltime": 7200,
    "args": {"flops": "50T", "io": "8G"},
    "reconfig_cost": "0.5 + io/(num_nodes_new*10G)",
    "phases": [
      {"name": "load", "tasks": [{"type": "read", "target": "pfs", "bytes": "io"}]},
      {"name": "solve", "iterations": 50, "scheduling_point": true, "tasks": [
        {"type": "compute", "flops": "flops/50 * (0.02 + 0.98/num_nodes)"},
        {"type": "comm", "pattern": "allreduce", "bytes": "64M"}
      ]},
      {"name": "store", "tasks": [{"type": "write", "target": "pfs", "bytes": "io"}]}
    ]
  }]
}
`

const formatExamples = `# Platform file (JSON). Quantities accept constant expressions
# ("100G" = 1e11). Topology "star" or "backbone" (+ backbone_bandwidth);
# burst_buffer is optional ("node_local" or "shared"). failures is
# optional: model "exponential" | "weibull" (+ mtbf, mttr, shape) or
# "trace" (+ outages: [{"node": 0, "down": 100, "up": 700}, ...]);
# recovery "shrink" (default) | "requeue" | "kill".
` + examplePlatform + `
# Workload file (JSON). Job types: rigid | moldable | malleable | evolving.
# Cost models are numbers, expressions, or vectors ({"4": 1e12, "8": 6e11});
# expression variables: num_nodes, total_nodes, iteration, iterations,
# phase, walltime, plus the job's own args. Dependencies reference jobs by
# name: "dependencies": ["sim0"]. An optional "checkpoint_interval"
# expression (seconds) enables checkpoint/restart under node failures.
` + exampleWorkload

// progressEvery is how often -progress reads the session and redraws its
// line.
const progressEvery = 500 * time.Millisecond

// watchProgress feeds p from session.Peek every progressEvery, on its own
// goroutine, while the session runs. The returned stop ends that goroutine,
// waits for it, and terminates the progress line.
func watchProgress(session *elastisim.Session, p *elastisim.RunProgress) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(progressEvery)
		defer tick.Stop()
		for {
			pk := session.Peek()
			p.Tick(pk.Now, pk.Events)
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() {
		close(quit)
		<-done
		p.Done()
	}
}
