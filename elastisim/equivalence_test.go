package elastisim

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/des"
	"repro/internal/fluid"
	"repro/internal/job"
)

// engineCtor is core.New's signature, the parameter of newSession.
type engineCtor = func(*PlatformSpec, *Workload, Algorithm, Options) (*core.Engine, error)

// referenceEngine is core.New on the reference implementations: the
// binary-heap event queue and/or a fluid pool in full-recompute mode.
func referenceEngine(heapQueue, fullSolve bool) engineCtor {
	return func(spec *PlatformSpec, w *Workload, algo Algorithm, opts Options) (*core.Engine, error) {
		k := des.NewKernel()
		if heapQueue {
			k = des.NewHeapKernel()
		}
		p := fluid.NewPool(k)
		p.SetForceFullSolve(fullSolve)
		return core.NewOn(k, p, spec, w, algo, opts)
	}
}

// runOn is Run(cfg) with the engine built by newEngine — how the
// equivalence tests put a whole session on a reference implementation.
func runOn(t *testing.T, cfg Config, newEngine engineCtor) *Result {
	t.Helper()
	s, err := newSession(cfg, newEngine)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// equivalenceRun executes one fixed-seed simulation of a mixed
// rigid/moldable/malleable/evolving workload with checkpointing and node
// failures — every code path that starts, cancels, grows, shrinks, or
// kills fluid activities — and returns the result plus byte-exact dumps
// of the trace and the per-job CSV. Trace times are formatted with %b
// (exact binary float), so even a one-ulp divergence between solver
// modes fails the comparison.
func equivalenceRun(t *testing.T, forceFull bool) (*Result, string, []byte) {
	t.Helper()
	return equivalenceRunOn(t, Options{Trace: true}, referenceEngine(false, forceFull))
}

// equivalenceRunOpts is equivalenceRun with caller-chosen engine options
// (the telemetry tests attach sinks to the same scenario).
func equivalenceRunOpts(t *testing.T, opts Options) (*Result, string, []byte) {
	t.Helper()
	return equivalenceRunOn(t, opts, core.New)
}

func equivalenceRunOn(t *testing.T, opts Options, newEngine engineCtor) (*Result, string, []byte) {
	t.Helper()
	res := runOn(t, equivalenceConfig(t, opts), newEngine)
	if res.Summary.NodeFailures == 0 {
		t.Fatal("scenario injected no failures; the test is vacuous")
	}
	trace, csv := dumpRun(t, res)
	return res, trace, csv
}

// equivalenceConfig builds the shared mixed-workload-with-failures
// scenario; the session lifecycle tests drive the same config through
// NewSession/Run/RunUntil/Step and compare against Run(cfg) byte for byte.
func equivalenceConfig(t *testing.T, opts Options) Config {
	t.Helper()
	wl, err := GenerateWorkload(WorkloadConfig{
		Seed: 11, Count: 60,
		Arrival:            job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.05},
		Nodes:              [2]int{1, 16},
		MachineNodes:       32,
		NodeSpeed:          100e9,
		TypeShares:         map[job.Type]float64{job.Rigid: 0.4, job.Moldable: 0.2, job.Malleable: 0.3, job.Evolving: 0.1},
		CheckpointInterval: "120",
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Platform:  HomogeneousPlatform("eq", 32, 100e9, 10e9, 40e9, 40e9),
		Workload:  wl,
		Algorithm: NewAdaptive(),
		Failures: &FailureSpec{
			Model: FailureExponential, Seed: 5,
			MTBF: 20000, MTTR: 300,
		},
		Options: opts,
	}
}

// dumpRun renders a result's trace (%b exact binary floats) and per-job
// CSV for byte-exact comparison.
func dumpRun(t *testing.T, res *Result) (string, []byte) {
	t.Helper()
	var trace strings.Builder
	for _, ev := range res.Trace {
		subject := fmt.Sprintf("job%d", ev.Job)
		if ev.Job == NoJob {
			subject = fmt.Sprintf("node%d", ev.Node)
		}
		fmt.Fprintf(&trace, "%b %s %s %s\n", ev.T, ev.Kind, subject, ev.Detail)
	}
	var csv bytes.Buffer
	if err := res.Recorder.WriteJobsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return trace.String(), csv.Bytes()
}

// TestIncrementalSolverEquivalence pins the central refactoring invariant:
// the incremental, component-partitioned fluid solver must reproduce the
// full-recompute baseline (fluid.Pool.SetForceFullSolve, reached through
// the newSession seam) bit for bit — same trace at exact float precision,
// same CSV, same summary, same kernel and scheduler counters — while
// actually re-solving strictly fewer activities.
func TestIncrementalSolverEquivalence(t *testing.T) {
	full, fullTrace, fullCSV := equivalenceRun(t, true)
	inc, incTrace, incCSV := equivalenceRun(t, false)

	if fullTrace != incTrace {
		t.Errorf("traces diverge between full and incremental solving:\n%s", firstDiff(fullTrace, incTrace))
	}
	if !bytes.Equal(fullCSV, incCSV) {
		t.Errorf("jobs CSV diverges between full and incremental solving")
	}
	if fs, is := fmt.Sprintf("%+v", full.Summary), fmt.Sprintf("%+v", inc.Summary); fs != is {
		t.Errorf("summaries diverge:\nfull: %s\nincr: %s", fs, is)
	}
	if full.Solves != inc.Solves {
		t.Errorf("solver invocation count diverges: full %d, incremental %d", full.Solves, inc.Solves)
	}
	// Unchanged rates never reschedule a completion event, so even the
	// kernel's counters agree; only the solver's work metric may differ.
	fullSnap, incSnap := full.Telemetry.StripWall(), inc.Telemetry.StripWall()
	fullSnap.Solver.SolvedActivities, incSnap.Solver.SolvedActivities = 0, 0
	if fs, is := fmt.Sprintf("%+v", fullSnap), fmt.Sprintf("%+v", incSnap); fs != is {
		t.Errorf("telemetry snapshots diverge:\nfull: %s\nincr: %s", fs, is)
	}
	// The whole point of partitioning: the incremental path must touch
	// strictly fewer activities than re-solving every component each time.
	if inc.SolvedActivities >= full.SolvedActivities {
		t.Errorf("incremental solver re-solved %d activities, full recompute %d — no work saved",
			inc.SolvedActivities, full.SolvedActivities)
	}
}

// firstDiff locates the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  full: %s\n  incr: %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
