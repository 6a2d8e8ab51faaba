package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/elastisim"
	"repro/internal/job"
	"repro/internal/platform"
)

// The documents -print-formats shows must actually load and simulate: an
// example that drifts out of sync with the formats is worse than none.
func TestPrintedExamplesAreValid(t *testing.T) {
	spec, err := platform.ParseSpec([]byte(examplePlatform))
	if err != nil {
		t.Fatalf("example platform invalid: %v", err)
	}
	wl, err := job.ParseWorkload([]byte(exampleWorkload), spec.TotalNodes())
	if err != nil {
		t.Fatalf("example workload invalid: %v", err)
	}
	res, err := elastisim.Run(elastisim.Config{
		Platform:  spec,
		Workload:  wl,
		Algorithm: elastisim.NewAdaptive(),
	})
	if err != nil {
		t.Fatalf("example simulation failed: %v", err)
	}
	if res.Summary.Completed != 1 {
		t.Errorf("example job did not complete: %+v", res.Summary)
	}
}

// runElastisim runs the command with args on a fresh flag set and returns
// its standard output and error.
func runElastisim(t *testing.T, args ...string) (string, error) {
	t.Helper()
	outPath := filepath.Join(t.TempDir(), "stdout")
	out, err := os.Create(outPath)
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout, osArgs, cmdLine := os.Stdout, os.Args, flag.CommandLine
	defer func() { os.Stdout, os.Args, flag.CommandLine = stdout, osArgs, cmdLine }()
	os.Stdout, os.Args = out, append([]string{"elastisim"}, args...)
	flag.CommandLine = flag.NewFlagSet("elastisim", flag.ContinueOnError)
	runErr := run(context.Background())
	b, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), runErr
}

// horizonConfig is a two-job document: a 10 s job and a 1000 s job on a
// 4-node cluster, with the options the test passes.
func horizonConfig(options string) string {
	return `{
  "platform": {"name": "tiny", "nodes": [{"count": 4, "speed": "1G"}],
    "network": {"link_bandwidth": "1G"}},
  "workload": {"name": "two", "jobs": [
    {"name": "short", "type": "rigid", "submit_time": 0, "num_nodes": 2,
     "phases": [{"tasks": [{"type": "compute", "flops": "10G"}]}]},
    {"name": "long", "type": "rigid", "submit_time": 0, "num_nodes": 2,
     "phases": [{"tasks": [{"type": "compute", "flops": "1000G"}]}]}
  ]},
  "algorithm": "fcfs"` + options + `
}`
}

// A run that a horizon cut short says so in its summary, with the number
// of jobs left unfinished; a drained run prints no such line.
func TestSummaryReportsUndrainedRun(t *testing.T) {
	for _, tc := range []struct {
		options   string
		completed string
		stopped   bool
	}{
		{`, "options": {"horizon": 100}`, "completed     1 (killed 0)\n", true},
		{``, "completed     2 (killed 0)\n", false},
	} {
		path := filepath.Join(t.TempDir(), "config.json")
		if err := os.WriteFile(path, []byte(horizonConfig(tc.options)), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := runElastisim(t, "-config", path)
		if err != nil {
			t.Fatalf("options %q: %v", tc.options, err)
		}
		const stop = "stopped       horizon with 1 of 2 jobs unfinished\n"
		if !strings.Contains(out, tc.completed) || strings.Contains(out, stop) != tc.stopped ||
			strings.Contains(out, "stopped") != tc.stopped {
			t.Errorf("options %q: want %q and a stop line %v, got:\n%s", tc.options, tc.completed, tc.stopped, out)
		}
	}
}
