package elastisim

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/job"
)

// queueDump runs cfg on newEngine's engine and returns the byte-exact artifacts the
// ladder/heap comparison pins — the %b-formatted trace, the per-job CSV,
// the canonical Result JSON document — plus the queue-independent part of
// the telemetry Snapshot: every deterministic counter except
// Kernel.PeakQueue, which includes tombstones still queued (the ladder
// sweeps them when it re-buckets, the heap only on compaction; 542 vs 543
// on cmd/bench's malleable_pfs, where Recycled and the rest agree).
func queueDump(t *testing.T, cfg Config, newEngine engineCtor) (string, []byte, []byte, string) {
	t.Helper()
	res := runOn(t, cfg, newEngine)
	trace, csv := dumpRun(t, res)
	var doc bytes.Buffer
	if err := res.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	snap := res.Telemetry.StripWall()
	snap.Kernel.PeakQueue = 0
	return trace, csv, doc.Bytes(), fmt.Sprintf("%+v", snap)
}

// periodicQueueConfig exercises the batched-invocation regime the ladder
// queue was built for: periodic-only scheduling over a rigid/moldable mix,
// no event-driven invocations.
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

// TestLadderHeapQueueEquivalence pins the event-queue refactoring
// invariant: the calendar/ladder queue must reproduce the binary-heap
// reference (des.NewHeapKernel, reached through the newSession seam) bit
// for bit — identical trace at exact float precision, identical per-job
// CSV, identical canonical Result JSON, identical telemetry counters bar
// the peak queue length — across scenarios covering failures, malleability,
// evolving requests, periodic-only batched invocations, and dependency
// chains with tied timestamps.
func TestLadderHeapQueueEquivalence(t *testing.T) {
	scenarios := []struct {
		name string
		cfg  func(*testing.T, Options) Config
	}{
		{"failures-adaptive", equivalenceConfig},
		{"periodic-batch", periodicQueueConfig},
		{"deps-ties", depsQueueConfig},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ladTrace, ladCSV, ladJSON, ladSnap := queueDump(t, sc.cfg(t, Options{Trace: true}), core.New)
			heapTrace, heapCSV, heapJSON, heapSnap := queueDump(t, sc.cfg(t, Options{Trace: true}), referenceEngine(true, false))
			if ladTrace != heapTrace {
				t.Errorf("traces diverge between ladder and heap queues:\n%s", firstDiff(heapTrace, ladTrace))
			}
			if !bytes.Equal(ladCSV, heapCSV) {
				t.Errorf("jobs CSV diverges between ladder and heap queues")
			}
			if !bytes.Equal(ladJSON, heapJSON) {
				t.Errorf("result JSON diverges between ladder and heap queues:\n%s",
					firstDiff(string(heapJSON), string(ladJSON)))
			}
			if ladSnap != heapSnap {
				t.Errorf("telemetry snapshots diverge:\nheap:   %s\nladder: %s", heapSnap, ladSnap)
			}
		})
	}
}
