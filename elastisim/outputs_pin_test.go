package elastisim

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/job"
)

var update = flag.Bool("update", false, "rewrite testdata/outputs_pin.txt from the current code")

// outputsPinPath holds one line per pinned run: the row name, then the
// SHA-256 of its Result JSON, jobs CSV, scheduler audit JSONL, event log
// as elastisim -trace prints it, event log as the daemon's trace.json
// encodes it, and JSONL span trace.
const outputsPinPath = "testdata/outputs_pin.txt"

// pinRow is one run whose exported bytes the table pins.
type pinRow struct {
	name string
	cfg  func(*testing.T) Config
}

// pinRows lists the table: the example cluster under every built-in
// algorithm, with and without its failure model; the five platform
// shapes of the core fast-path tests (star, backbone, tree, node-local and
// shared burst buffer) at seeds 1-4; and a two-speed heterogeneous
// cluster.
func pinRows() []pinRow {
	var rows []pinRow
	for _, plat := range []string{"platform", "platform-failures"} {
		for _, algo := range AlgorithmNames() {
			plat, algo := plat, algo
			rows = append(rows, pinRow{"examples/" + plat + "/" + algo, func(t *testing.T) Config {
				return examplePinConfig(t, plat, algo)
			}})
		}
	}
	for _, shape := range []string{"star", "backbone", "tree", "node-local-bb", "shared-bb"} {
		for seed := uint64(1); seed <= 4; seed++ {
			shape, seed := shape, seed
			rows = append(rows, pinRow{fmt.Sprintf("shape/%s/seed%d", shape, seed), func(t *testing.T) Config {
				return shapePinConfig(t, shape, seed)
			}})
		}
	}
	rows = append(rows, pinRow{"hetero", heteroPinConfig})
	return rows
}

func examplePinConfig(t *testing.T, plat, algo string) Config {
	t.Helper()
	spec, err := LoadPlatform(filepath.Join("..", "examples", "data", plat+".json"))
	if err != nil {
		t.Fatal(err)
	}
	wl, err := LoadWorkload(filepath.Join("..", "examples", "data", "workload.json"), spec.TotalNodes())
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewAlgorithm(algo)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Platform: spec, Workload: wl, Algorithm: alg}
}

// shapePinConfig is a 16-node cluster of 1 Gflop/s nodes with 1 GB/s links
// and a 2 GB/s PFS in the given shape, running 25 generated jobs of every
// elastic class under the adaptive algorithm.
func shapePinConfig(t *testing.T, shape string, seed uint64) Config {
	t.Helper()
	spec := HomogeneousPlatform("test", 16, 1e9, 1e9, 2e9, 2e9)
	target := job.TargetPFS
	switch shape {
	case "backbone":
		spec.Network.Topology = "backbone"
		spec.Network.BackboneBandwidth = 5e9
	case "tree":
		spec.Network.Topology = "tree"
		spec.Network.GroupSize = 4
		spec.Network.UplinkBandwidth = 2e9
		spec.Network.BackboneBandwidth = 6e9
	case "node-local-bb":
		spec.BurstBuffer = &BurstBufferSpec{Kind: "node_local", ReadBandwidth: 2e9, WriteBandwidth: 2e9}
		target = job.TargetBB
	case "shared-bb":
		spec.BurstBuffer = &BurstBufferSpec{Kind: "shared", ReadBandwidth: 8e9, WriteBandwidth: 8e9}
		target = job.TargetBB
	}
	wl, err := GenerateWorkload(WorkloadConfig{
		Seed: seed, Count: 25,
		Arrival:          job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.03},
		Nodes:            [2]int{1, 8},
		MachineNodes:     16,
		NodeSpeed:        100e9,
		TypeShares:       map[job.Type]float64{job.Rigid: 1, job.Malleable: 1, job.Evolving: 1},
		CheckpointTarget: target,
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Platform: spec, Workload: wl, Algorithm: NewAdaptive()}
}

// heteroPinConfig mixes 1 and 3 Gflop/s nodes, so a job's compute time is
// set by its slowest node.
func heteroPinConfig(t *testing.T) Config {
	t.Helper()
	spec := &PlatformSpec{
		Name:    "hetero",
		Nodes:   []NodeGroupSpec{{Count: 8, Speed: 1e9}, {Count: 8, Speed: 3e9}},
		Network: NetworkSpec{LinkBandwidth: 1e9},
		PFS:     &StorageSpec{ReadBandwidth: 2e9, WriteBandwidth: 2e9},
	}
	wl, err := GenerateWorkload(WorkloadConfig{
		Seed: 3, Count: 20,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.05},
		Nodes:        [2]int{1, 8},
		MachineNodes: 16,
		NodeSpeed:    1e9,
		TypeShares:   map[job.Type]float64{job.Rigid: 1, job.Malleable: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Config{Platform: spec, Workload: wl, Algorithm: NewAdaptive()}
}

// pinArtifacts names the documents pinDigests hashes, in column order.
var pinArtifacts = [...]string{"Result JSON", "jobs CSV", "audit JSONL", "trace lines", "trace JSON", "span JSONL"}

// pinDigests runs cfg with the event log (task events included), a JSONL
// span sink and a scheduler audit attached, as elastisim -trace
// -trace-jsonl -audit-out does, and hashes the six exported documents.
func pinDigests(t *testing.T, cfg Config) [len(pinArtifacts)]string {
	t.Helper()
	var audit, spans bytes.Buffer
	log := NewAuditLog(&audit)
	tracer := NewTracer(NewJSONLTraceSink(&spans)).SetAudit(log)
	cfg.Options.Telemetry = tracer
	var events []TraceEvent
	cfg.Options.Trace, cfg.Options.TraceTasks = collect(&events), true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Close(); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	var doc, csv, lines, eventsJSON bytes.Buffer
	if err := res.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	if err := res.Recorder.WriteJobsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		fmt.Fprintln(&lines, ev)
	}
	enc := json.NewEncoder(&eventsJSON)
	enc.SetIndent("", "  ")
	if err := enc.Encode(events); err != nil {
		t.Fatal(err)
	}
	var out [len(pinArtifacts)]string
	for i, b := range [][]byte{doc.Bytes(), csv.Bytes(), audit.Bytes(), lines.Bytes(), eventsJSON.Bytes(), spans.Bytes()} {
		out[i] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	return out
}

// TestOutputsPinned pins the bytes a run exports — the Result JSON, the
// jobs CSV, the scheduler audit, the event log in both its text and JSON
// forms, and the span trace — for every row of pinRows. A change
// meant to keep every simulated outcome must pass it unedited; a change
// that moves outputs on purpose regenerates the table with
//
//	go test ./elastisim -run TestOutputsPinned -update
//
// and says why in its commit.
func TestOutputsPinned(t *testing.T) {
	// The digests hold on amd64 only: other architectures may fuse x*y+z
	// into one FMA instruction and so move low-order bits of simulated
	// times.
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests were computed on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	rows := pinRows()
	if *update {
		var b strings.Builder
		for _, r := range rows {
			d := pinDigests(t, r.cfg(t))
			fmt.Fprintf(&b, "%s %s\n", r.name, strings.Join(d[:], " "))
		}
		if err := os.WriteFile(outputsPinPath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readPins(t)
	if len(want) != len(rows) {
		t.Errorf("%s has %d rows, the table %d; regenerate it with -update", outputsPinPath, len(want), len(rows))
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			w, ok := want[r.name]
			if !ok {
				t.Fatalf("no pinned digests; regenerate %s with -update", outputsPinPath)
			}
			got := pinDigests(t, r.cfg(t))
			for i := range got {
				if got[i] != w[i] {
					t.Errorf("%s digest %s, pinned %s", pinArtifacts[i], got[i], w[i])
				}
			}
		})
	}
}

func readPins(t *testing.T) map[string][len(pinArtifacts)]string {
	t.Helper()
	f, err := os.Open(outputsPinPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pins := map[string][len(pinArtifacts)]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 1+len(pinArtifacts) {
			t.Fatalf("%s: malformed line %q", outputsPinPath, sc.Text())
		}
		var d [len(pinArtifacts)]string
		copy(d[:], fields[1:])
		pins[fields[0]] = d
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return pins
}
