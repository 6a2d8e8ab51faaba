// Command bench is the repository's benchmark: six workloads, each
// measured end to end with tracing off and attributed to the layers in a
// separate traced pass. See README.md beside this file.
//
//	go run ./cmd/bench -seed 1 -out bench.json            the whole suite
//	go run ./cmd/bench -check                             two suites, compared
//	go run ./cmd/bench --workload deep_queue --seed 1 --seconds 10 --trace 0
//
// The last form is the one BENCHMARK.json names: one workload, one pass,
// and one JSON object as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"
)

// workloads lists the benchmark's inputs in report order; the reasons
// are repeated in BENCHMARK.json.
var workloads = []struct{ name, why string }{
	{"rigid_xl", "10k nodes, 200k small rigid jobs, periodic firstfit: kernel, engine bookkeeping and allocator do the work; solver and scheduler are bypassed"},
	{"malleable_pfs", "1k nodes, 3k jobs half malleable on a narrow shared PFS, adaptive: about 70 activities per fluid re-solve plus reconfigurations, so the solver dominates"},
	{"deep_queue", "512 nodes, 400 rigid jobs arriving at twice the sustainable rate, conservative backfilling: a backlogged queue puts nearly all host time in the scheduler"},
	{"failures_shrink", "1k nodes, 5k jobs half malleable under exponential node failures with shrink recovery: the cancel, requeue and shrink paths of kernel, solver and engine"},
	{"service_sessions", "closed loop of short sessions through an in-process elastisimd (POST, SSE until done, GET result): HTTP, config parse, journal fsync and artifacts outweigh the engine"},
	{"sweep_cells", "288-cell journaled grid of 10 ms simulations on a worker pool: workload generation, session set-up, result encoding and claim/finish per cell dominate"},
}

func newWorkload(name string, short bool) (workload, error) {
	switch name {
	case "service_sessions":
		return &serviceWorkload{}, nil
	case "sweep_cells":
		return &sweepWorkload{}, nil
	}
	sp, ok := simSpecs[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if short {
		sp.nodes, sp.jobs = max(sp.nodes/16, 64), max(sp.jobs/40, 60)
	}
	return &simWorkload{spec: sp}, nil
}

// workloadReport is everything one workload produced.
type workloadReport struct {
	Why       string    `json:"why"`
	Digest    string    `json:"sim_digest"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
}

type hostInfo struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	LoadAvg    string  `json:"load_average_at_start"`
	WallS      float64 `json:"total_wall_s"`
}

type suiteReport struct {
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Workloads map[string]*workloadReport `json:"workloads"`
}

// gitCommit reads the checked-out commit: from the build stamp, else from
// .git in the working directory.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(sha))
	}
	return "unknown"
}

// runWorkload does the passes asked for on one workload. The traced pass's
// spans go to trace at once: a later workload must not run beside a heap
// full of an earlier one's spans, which would make its GC cycles rarer.
func runWorkload(name, why string, e *env, plain, traced bool, trace *traceFile) (*workloadReport, error) {
	w, err := newWorkload(name, e.short)
	if err != nil {
		return nil, err
	}
	if err := w.warmup(e); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", name, err)
	}
	rep := &workloadReport{Why: why, Digest: w.digest()}
	if plain {
		out, err := measure(w, e)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		rep.EndToEnd = out.metrics.resolve(endToEnd)
		rep.Attempted, rep.Failed = out.attempted, out.failed
	}
	if traced {
		out, log, err := profile(w, e)
		if err != nil {
			return nil, fmt.Errorf("%s: traced pass: %w", name, err)
		}
		rep.PerLayer = out.metrics.resolve(perLayer)
		rep.Attempted += out.attempted
		rep.Failed += out.failed
		if err := trace.add(log, name); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// runSuite runs every selected workload, both passes, and fails when the
// suite overran its wall budget: 4 s per requested second and workload.
func runSuite(e *env, only string, out io.Writer, trace *traceFile) (*suiteReport, error) {
	rep := &suiteReport{
		Host: hostInfo{
			NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), Commit: gitCommit(),
		},
		Seed: e.seed, Workloads: map[string]*workloadReport{},
	}
	if la, err := os.ReadFile("/proc/loadavg"); err == nil {
		rep.Host.LoadAvg = strings.TrimSpace(string(la))
	}
	start := time.Now()
	ran := 0
	for _, wl := range workloads {
		if only != "" && only != wl.name {
			continue
		}
		r, err := runWorkload(wl.name, wl.why, e, true, true, trace)
		if err != nil {
			return nil, err
		}
		rep.Workloads[wl.name] = r
		ran++
		fmt.Fprintf(out, "\n%s  (%d ops, %d failed, sim_digest %.16s)\n", wl.name, r.Attempted, r.Failed, r.Digest)
		printMetrics(out, endToEnd, r.EndToEnd)
		printMetrics(out, perLayer, r.PerLayer)
	}
	if ran == 0 {
		return nil, fmt.Errorf("unknown workload %q", only)
	}
	rep.Host.WallS = time.Since(start).Seconds()
	if budget := 4 * e.seconds * float64(ran); !e.short && rep.Host.WallS > budget {
		return rep, fmt.Errorf("suite took %.0f s, over its wall budget of %.0f s", rep.Host.WallS, budget)
	}
	return rep, nil
}

func printMetrics(out io.Writer, defs []metricDef, m metricSet) {
	for _, d := range defs {
		s := m[d.Name]
		fmt.Fprintf(out, "  %-42s %14.6g %-6s n=%d\n", d.Name, s.Value, s.Unit, s.N)
	}
}

func (r *suiteReport) failed() int {
	n := 0
	for _, w := range r.Workloads {
		n += w.Failed
	}
	return n
}

// traceFile streams the traced passes' spans into one Chrome trace, one
// process per workload. A nil *traceFile drops them.
type traceFile struct {
	f    *os.File
	pids int
}

func createTrace(path string) (*traceFile, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	_, err = f.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	return &traceFile{f: f}, err
}

func (t *traceFile) add(log *spanLog, process string) error {
	if t == nil {
		return nil
	}
	t.pids++
	for i, ev := range log.chromeEvents(t.pids, process) {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if t.pids > 1 || i > 0 {
			data = append([]byte(",\n"), data...)
		}
		if _, err := t.f.Write(data); err != nil {
			return err
		}
	}
	return nil
}

func (t *traceFile) close() error {
	if t == nil {
		return nil
	}
	_, err := t.f.WriteString("\n]}\n")
	if cerr := t.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// selfAgreement compares two suites of the same code: every end-to-end
// metric must repeat within its bound and every exact count exactly.
func selfAgreement(a, b *suiteReport, out io.Writer) (ok bool) {
	ok = true
	fmt.Fprintf(out, "\n%-18s %-18s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "diff", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			diff := (vb - va) / va
			verdict := "PASS"
			if diff > d.Bound || diff < -d.Bound {
				verdict, ok = "UNRESOLVED", false
			}
			fmt.Fprintf(out, "%-18s %-18s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", wl.name, d.Name, va, vb, 100*diff, 100*d.Bound, verdict)
		}
		for _, d := range perLayer {
			if va, vb := ra.PerLayer[d.Name].Value, rb.PerLayer[d.Name].Value; d.Exact && va != vb {
				fmt.Fprintf(out, "%-18s %-18s %14.6g %14.6g  count MISMATCH\n", wl.name, d.Name, va, vb)
				ok = false
			}
		}
		if ra.Digest != rb.Digest {
			fmt.Fprintf(out, "%-18s sim_digest %s != %s  MISMATCH\n", wl.name, ra.Digest, rb.Digest)
			ok = false
		}
	}
	return ok
}

// writeResultLine prints the one JSON object BENCHMARK.json's driver reads.
func writeResultLine(out io.Writer, rep *workloadReport, metrics metricSet) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Failed == 0, rep.Attempted, rep.Failed, map[string]value{}}
	for name, s := range metrics {
		line.Metrics[name] = value{s.Value, s.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", data)
	return err
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed     = fs.Uint64("seed", 1, "seed every input is generated from")
		secs     = fs.Float64("seconds", 10, "timed wall seconds per workload")
		reps     = fs.Int("reps", 3, "minimum timed rounds per workload")
		one      = fs.String("workload", "", "run one workload and print one JSON result line (the BENCHMARK.json form)")
		trace    = fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = traced pass and per-layer metrics")
		only     = fs.String("only", "", "suite: run just this workload")
		outPath  = fs.String("out", "", "suite: write the full report as JSON here")
		traceOut = fs.String("trace-out", "", "write the traced pass's spans as Chrome trace JSON here")
		check    = fs.Bool("check", false, "run the suite twice and compare the two sets")
		short    = fs.Bool("short", false, "test-sized inputs, one round")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if raceEnabled {
		return fail(fmt.Errorf("refusing to measure a -race build"))
	}
	if old := debug.SetGCPercent(100); old != 100 {
		return fail(fmt.Errorf("GOGC is %d; the benchmark is defined at the default of 100", old))
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	// Journals and artifacts stay inside the working directory and go
	// away with the run, also when it is interrupted.
	tmp, err := os.MkdirTemp(".", ".bench_tmp-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	sig, done := make(chan os.Signal, 1), make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer close(done)
	defer signal.Stop(sig)
	go func() {
		select {
		case <-sig:
			os.RemoveAll(tmp)
			os.Exit(130)
		case <-done:
		}
	}()

	e := &env{seed: *seed, seconds: *secs, reps: *reps, workers: runtime.GOMAXPROCS(0), tmp: tmp, short: *short}
	if e.short {
		e.seconds, e.reps = 0, 1
	}

	spans, err := createTrace(*traceOut)
	if err != nil {
		return fail(err)
	}
	if *one != "" {
		rep, err := runWorkload(*one, "", e, *trace == 0, *trace != 0, spans)
		if err == nil {
			err = spans.close()
		}
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "bench: %s sim_digest %s\n", *one, rep.Digest)
		metrics := rep.EndToEnd
		if *trace != 0 {
			metrics = rep.PerLayer
		}
		if err := writeResultLine(stdout, rep, metrics); err != nil {
			return fail(err)
		}
		if rep.Failed > 0 {
			return 1
		}
		return 0
	}

	a, err := runSuite(e, *only, stdout, spans)
	if cerr := spans.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "\nhost: %d cpus, GOMAXPROCS %d, %s, commit %s, load %s, %.1f s\n",
		a.Host.NProc, a.Host.GoMaxProcs, a.Host.GoVersion, a.Host.Commit, a.Host.LoadAvg, a.Host.WallS)
	if *outPath != "" {
		data, err := json.MarshalIndent(a, "", "  ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	agree := true
	if *check {
		b, err := runSuite(e, *only, io.Discard, nil)
		if err != nil {
			return fail(err)
		}
		agree = selfAgreement(a, b, stdout)
		if b.failed() > 0 {
			agree = false
		}
	}
	if a.failed() > 0 || !agree {
		return 1
	}
	return 0
}
