package elastisim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/job"
)

// queueDump runs cfg and returns the byte-exact artifacts the queue
// digests pin: the %b-formatted trace, the per-job CSV and the canonical
// Result JSON document.
func queueDump(t *testing.T, cfg Config) [3][]byte {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace, csv := dumpRun(t, res)
	var doc bytes.Buffer
	if err := res.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	return [3][]byte{[]byte(trace), csv, doc.Bytes()}
}

// periodicQueueConfig exercises the batched-invocation regime:
// periodic-only scheduling over a rigid/moldable mix, no event-driven
// invocations.
func periodicQueueConfig(t *testing.T, opts Options) Config {
	t.Helper()
	wl, err := GenerateWorkload(WorkloadConfig{
		Seed: 23, Count: 150,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.2},
		Nodes:        [2]int{1, 8},
		MachineNodes: 24,
		NodeSpeed:    100e9,
		TypeShares:   map[job.Type]float64{job.Rigid: 0.7, job.Moldable: 0.3},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.InvocationInterval = 45
	opts.DisableEventDriven = true
	alg, err := NewAlgorithm("firstfit")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Platform:  HomogeneousPlatform("eq", 24, 100e9, 10e9, 40e9, 40e9),
		Workload:  wl,
		Algorithm: alg,
		Options:   opts,
	}
}

// depsQueueConfig exercises dependency holds and the chained submission
// events: jobs arrive in ties at identical timestamps and release
// dependents on completion.
func depsQueueConfig(t *testing.T, opts Options) Config {
	t.Helper()
	app := &job.Application{Phases: []job.Phase{{Tasks: []job.Task{
		{Kind: job.TaskCompute, Model: job.MustExprModel("2e11 * num_nodes")},
	}}}}
	var js []*job.Job
	for i := 0; i < 24; i++ {
		j := &job.Job{
			ID:         job.ID(i),
			Name:       fmt.Sprintf("dep%d", i),
			Type:       job.Rigid,
			SubmitTime: float64(i % 3),
			NumNodes:   1 + i%4,
			App:        app,
		}
		if i >= 4 {
			j.Dependencies = []job.ID{job.ID(i - 4)}
		}
		js = append(js, j)
	}
	wl := &Workload{Name: "deps", Jobs: js}
	wl.Sort()
	alg, err := NewAlgorithm("fcfs")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Platform:  HomogeneousPlatform("eq", 16, 100e9, 10e9, 40e9, 40e9),
		Workload:  wl,
		Algorithm: alg,
		Options:   opts,
	}
}

// TestLadderHeapQueueEquivalence pins the event queue's output to the
// ladder queue it replaced: the SHA-256 of each scenario's trace, jobs CSV
// and Result JSON, computed at commit 958a550, where this test still ran
// every scenario on both the ladder and the binary heap and required
// identical bytes. The scenarios cover failures, malleability, evolving
// requests, periodic-only batched invocations, and dependency chains with
// tied timestamps.
func TestLadderHeapQueueEquivalence(t *testing.T) {
	// The digests hold on amd64 only: on arm64, ppc64 and s390x the Go
	// compiler may fuse x*y+z into one FMA instruction, which rounds once
	// instead of twice and so moves low-order bits of simulated times.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were computed on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	scenarios := []struct {
		name string
		cfg  func(*testing.T, Options) Config
		want [3]string // trace, jobs CSV, Result JSON
	}{
		{"failures-adaptive", equivalenceConfig, [3]string{
			"cf0048ceb9157040078c69acc1f188e4f2691eb4c899c7881d1085a35ef0e055",
			"51b8927fdbd6c5cce6a2642ce55adb662fdcc7d7d4855cd0a223a092407db78b",
			"d7cefb412c7c0766b4790bf2010b4db0ba57095bea052f2d53c1018246871105",
		}},
		{"periodic-batch", periodicQueueConfig, [3]string{
			"3d794813494d5a1d39c5faa6f781a82cf8823622380e70b170e66616df189c2c",
			"eefd2ba76760d092880ce78f140e7cc8f3b089aaad025f76762c79dd2070a8a6",
			"de64d644b99df63bf0773763650afad6df1372cb238821f197258212d64365bb",
		}},
		{"deps-ties", depsQueueConfig, [3]string{
			"4d074fc99e32917d30956c79272c31c30b9cc9da88827c90c2626f037516e2d4",
			"e1561469e5d12c8530a32b1215c0a04cf6c79ee8fc5799e3b51506399c285b29",
			"60d938a1e0183c8f52933bacb92c04e316d39f6a369d76efd8d888aae86ee4eb",
		}},
	}
	artifacts := [3]string{"trace", "jobs CSV", "Result JSON"}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			got := queueDump(t, sc.cfg(t, Options{Trace: true}))
			for i, b := range got {
				if d := fmt.Sprintf("%x", sha256.Sum256(b)); d != sc.want[i] {
					t.Errorf("%s digest %s, want %s (the ladder queue's)", artifacts[i], d, sc.want[i])
				}
			}
		})
	}
}
