package elastisim

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/job"
)

func smallConfig(t *testing.T, algo Algorithm) Config {
	t.Helper()
	wl, err := GenerateWorkload(WorkloadConfig{
		Seed: 3, Count: 30,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.05},
		Nodes:        [2]int{1, 8},
		MachineNodes: 16,
		NodeSpeed:    100e9,
		TypeShares:   map[job.Type]float64{job.Rigid: 0.5, job.Malleable: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Platform:  HomogeneousPlatform("t", 16, 100e9, 10e9, 40e9, 40e9),
		Workload:  wl,
		Algorithm: algo,
	}
}

func TestRunEndToEnd(t *testing.T) {
	res, err := Run(smallConfig(t, NewAdaptive()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Jobs != 30 {
		t.Errorf("jobs = %d", res.Summary.Jobs)
	}
	if res.Summary.Completed+res.Summary.Killed != 30 {
		t.Errorf("finished %d+%d != 30", res.Summary.Completed, res.Summary.Killed)
	}
	if res.Summary.Makespan <= 0 {
		t.Error("zero makespan")
	}
	if res.Summary.Utilization <= 0 || res.Summary.Utilization > 1 {
		t.Errorf("utilization %v", res.Summary.Utilization)
	}
	if len(res.Records) != 30 {
		t.Errorf("records %d", len(res.Records))
	}
	if res.Events == 0 || res.Invocations == 0 {
		t.Error("missing counters")
	}
	if res.WallClock <= 0 {
		t.Error("no wall clock")
	}
}

func TestRunMissingPieces(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := smallConfig(t, nil)
	if _, err := Run(cfg); err == nil {
		t.Error("nil algorithm accepted")
	}
}

func TestNewAlgorithm(t *testing.T) {
	for _, name := range AlgorithmNames() {
		a, err := NewAlgorithm(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if a.Name() == "" {
			t.Errorf("%s: empty Name()", name)
		}
	}
	if _, err := NewAlgorithm("quantum"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	names := AlgorithmNames()
	want := []string{"adaptive", "conservative", "easy", "fairshare", "fcfs", "firstfit", "packed", "sjf"}
	if len(names) != len(want) {
		t.Fatalf("names %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names %v, want %v", names, want)
		}
	}
}

func TestAllBuiltinsCompleteWorkload(t *testing.T) {
	for _, name := range AlgorithmNames() {
		algo, err := NewAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(smallConfig(t, algo))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Summary.Completed+res.Summary.Killed != 30 {
			t.Errorf("%s finished only %d jobs", name, res.Summary.Completed+res.Summary.Killed)
		}
	}
}

func TestLoadPlatformAndWorkloadFiles(t *testing.T) {
	dir := t.TempDir()
	platPath := filepath.Join(dir, "platform.json")
	wlPath := filepath.Join(dir, "workload.json")
	platJSON := `{
		"name": "file-cluster",
		"nodes": [{"count": 8, "speed": "100G"}],
		"network": {"link_bandwidth": "10G"},
		"pfs": {"read_bandwidth": "40G", "write_bandwidth": "40G"}
	}`
	wlJSON := `{
		"jobs": [{
			"type": "rigid", "submit_time": 0, "num_nodes": 2,
			"phases": [{"tasks": [{"type": "compute", "flops": "200G / num_nodes"}]}]
		}]
	}`
	if err := os.WriteFile(platPath, []byte(platJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(wlPath, []byte(wlJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadPlatform(platPath)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := LoadWorkload(wlPath, spec.TotalNodes())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Platform: spec, Workload: wl, Algorithm: NewFCFS()})
	if err != nil {
		t.Fatal(err)
	}
	// 200 Gflop over 2 nodes at 100 Gflop/s = 1 s.
	if r := res.Records[0]; r.Runtime() != 1 {
		t.Errorf("runtime %v, want 1", r.Runtime())
	}
	if _, err := LoadPlatform(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing platform file accepted")
	}
	if _, err := LoadWorkload(filepath.Join(dir, "missing.json"), 8); err == nil {
		t.Error("missing workload file accepted")
	}
}

func TestLoadSWF(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.swf")
	trace := strings.Repeat("1 0 0 100 4 -1 -1 4 200 -1 1 1 1 1 1 1 -1 -1\n", 5)
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	wl, err := LoadSWF(path, SWFOptions{NodeSpeed: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Jobs) != 5 {
		t.Errorf("jobs %d", len(wl.Jobs))
	}
	if _, err := LoadSWF(filepath.Join(dir, "missing.swf"), SWFOptions{NodeSpeed: 1e9}); err == nil {
		t.Error("missing SWF accepted")
	}
}

// TestNewSessionLeavesPlatformSpec pins that Config.Failures reaches the
// engine through a copy of the platform spec: the caller's spec keeps its
// own failure model, so one spec can drive clean and degraded sessions.
func TestNewSessionLeavesPlatformSpec(t *testing.T) {
	cfg := equivalenceConfig(t, Options{})
	if cfg.Platform.Failures != nil || cfg.Failures == nil {
		t.Fatal("scenario must set Config.Failures on a spec without one")
	}
	if _, err := NewSession(cfg); err != nil {
		t.Fatal(err)
	}
	if cfg.Platform.Failures != nil {
		t.Errorf("NewSession wrote Config.Failures into the caller's platform spec")
	}
}
