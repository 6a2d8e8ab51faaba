package elastisim

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/job"
)

// runHash executes one fixed-seed simulation with node failures enabled
// and digests everything observable — the event trace, the per-job CSV,
// and the summary — into one FNV-1a hash.
func runHash(t *testing.T) uint64 {
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
	var log []TraceEvent
	res, err := Run(Config{
		Platform:  HomogeneousPlatform("det", 32, 100e9, 10e9, 40e9, 40e9),
		Workload:  wl,
		Algorithm: NewAdaptive(),
		Failures: &FailureSpec{
			Model: FailureExponential, Seed: 5,
			MTBF: 20000, MTTR: 300,
		},
		Options: Options{Trace: collect(&log)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.NodeFailures == 0 {
		t.Fatal("scenario injected no failures; the test is vacuous")
	}
	h := fnv.New64a()
	for _, ev := range log {
		fmt.Fprintln(h, ev.String())
	}
	var csv bytes.Buffer
	if err := res.Recorder.WriteJobsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	h.Write(csv.Bytes())
	fmt.Fprintf(h, "%+v", res.Summary)
	return h.Sum64()
}

// TestDeterminismRegression runs the same failure-laden mixed workload
// twice and demands bit-identical traces: any nondeterminism bug (map
// iteration, pointer ordering, RNG sharing) fails loudly here.
func TestDeterminismRegression(t *testing.T) {
	a := runHash(t)
	b := runHash(t)
	if a != b {
		t.Fatalf("two identical runs hashed %x and %x", a, b)
	}
}
