package elastisim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/job"
)

// equivalenceRunOpts executes one fixed-seed simulation of a mixed
// rigid/moldable/malleable/evolving workload with checkpointing and node
// failures — every code path that starts, cancels, grows, shrinks, or
// kills fluid activities — under the given engine options with the event
// log collected, and returns the result plus byte-exact dumps of the
// trace and the per-job CSV.
// Trace times are formatted with %b (exact binary float), so even a
// one-ulp divergence fails a comparison.
func equivalenceRunOpts(t *testing.T, opts Options) (*Result, string, []byte) {
	t.Helper()
	var log []TraceEvent
	opts.Trace = collect(&log)
	res, err := Run(equivalenceConfig(t, opts))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.NodeFailures == 0 {
		t.Fatal("scenario injected no failures; the test is vacuous")
	}
	trace, csv := dumpRun(t, log, res)
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

// collect returns an event-log consumer that appends each record to *log.
func collect(log *[]TraceEvent) func(TraceEvent) {
	return func(ev TraceEvent) { *log = append(*log, ev) }
}

// dumpRun renders a run's collected event log (%b exact binary floats)
// and its result's per-job CSV for byte-exact comparison.
func dumpRun(t *testing.T, log []TraceEvent, res *Result) (string, []byte) {
	t.Helper()
	var trace strings.Builder
	for _, ev := range log {
		subject := fmt.Sprintf("job%d", ev.Job)
		if ev.Job == NoJob {
			subject = fmt.Sprintf("node%d", ev.Node)
		}
		fmt.Fprintf(&trace, "%b %s %s %s\n", ev.T, ev.Kind, subject, ev.Detail())
	}
	var csv bytes.Buffer
	if err := res.Recorder.WriteJobsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	return trace.String(), csv.Bytes()
}

// firstDiff locates the first differing line of two multi-line strings.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("lengths differ: %d vs %d lines", len(al), len(bl))
}
