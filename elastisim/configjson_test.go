package elastisim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// fullConfigDoc exercises every serializable field class: tree topology
// with tapered uplinks, burst buffer, a platform-level failure model, a
// top-level failure override with scripted outages, all four job types,
// expression and vector models, args, dependencies, checkpointing, users,
// and every engine option.
const fullConfigDoc = `{
  "platform": {
    "name": "roundtrip",
    "nodes": [
      {"count": 12, "speed": "100G"},
      {"count": 4, "speed": "200G", "name_prefix": "fat"}
    ],
    "network": {
      "topology": "tree",
      "link_bandwidth": "10G",
      "group_size": 4,
      "uplink_bandwidth": "25G",
      "backbone_bandwidth": "100G",
      "latency": 1e-6
    },
    "pfs": {"read_bandwidth": "80G", "write_bandwidth": "60G"},
    "burst_buffer": {"kind": "node_local", "read_bandwidth": "4G", "write_bandwidth": "4G"},
    "failures": {"model": "weibull", "seed": 3, "mtbf": "50k", "mttr": 600, "shape": 1.5, "recovery": "requeue"}
  },
  "workload": {
    "name": "rt-jobs",
    "jobs": [
      {
        "name": "pre", "type": "rigid", "submit_time": 0, "num_nodes": 2,
        "walltime": 1800, "user": "alice",
        "args": {"flops": "10T"},
        "phases": [{"tasks": [{"type": "compute", "flops": "flops / num_nodes"}]}]
      },
      {
        "name": "solver", "type": "malleable", "submit_time": 30,
        "num_nodes_min": 2, "num_nodes_max": 8, "walltime": 7200, "user": "bob",
        "args": {"io": "8G", "w": "2T"},
        "reconfig_cost": "0.5 + io/(num_nodes_new*10G)",
        "checkpoint_interval": "300",
        "dependencies": ["pre"],
        "phases": [
          {"name": "load", "tasks": [{"type": "read", "target": "bb", "bytes": "io"}]},
          {"name": "iter", "iterations": 10, "scheduling_point": true, "tasks": [
            {"type": "compute", "name": "work", "flops": {"2": 1e12, "4": 6e11, "8": 4e11}},
            {"type": "comm", "pattern": "allreduce", "bytes": "64M"}
          ]},
          {"name": "store", "tasks": [{"type": "write", "target": "pfs", "bytes": "io"}]}
        ]
      },
      {
        "name": "molded", "type": "moldable", "submit_time": 60,
        "num_nodes_min": 1, "num_nodes_max": 4,
        "phases": [{"tasks": [{"type": "compute", "flops": "1T / num_nodes"}]}]
      },
      {
        "name": "grower", "type": "evolving", "submit_time": 90,
        "num_nodes_min": 1, "num_nodes_max": 6,
        "phases": [
          {"tasks": [{"type": "compute", "flops": "5T / num_nodes"}]},
          {"tasks": [{"type": "evolving_request", "nodes": "4"}]},
          {"tasks": [{"type": "compute", "flops": "5T / num_nodes"}, {"type": "delay", "seconds": "1.5"}]}
        ]
      }
    ]
  },
  "algorithm": "adaptive",
  "failures": {
    "model": "trace",
    "outages": [{"node": 1, "down": 500, "up": 900}, {"node": 5, "down": 1200, "up": 1500}],
    "recovery": "shrink",
    "max_requeues": 3
  },
  "options": {
    "invocation_interval": 30,
    "disable_event_driven": false,
    "fairness": "equal-split",
    "trace": true,
    "trace_tasks": true,
    "horizon": "100k"
  }
}`

// TestConfigRoundTrip pins unmarshal → marshal → unmarshal fidelity: a
// config POSTed to the daemon must mean exactly the same thing as the one
// re-serialized from it. Semantics are compared three ways: the marshaled
// form reaches a fixpoint, the structural pieces compare equal, and — the
// strongest check — running both configs produces byte-identical canonical
// result documents.
func TestConfigRoundTrip(t *testing.T) {
	cfg1, err := ParseConfig([]byte(fullConfigDoc))
	if err != nil {
		t.Fatalf("parse original: %v", err)
	}
	m1, err := MarshalConfig(cfg1)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	cfg2, err := ParseConfig(m1)
	if err != nil {
		t.Fatalf("parse re-marshaled config: %v\ndoc:\n%s", err, m1)
	}
	m2, err := MarshalConfig(cfg2)
	if err != nil {
		t.Fatalf("re-marshal: %v", err)
	}
	if !bytes.Equal(m1, m2) {
		t.Errorf("marshal not a fixpoint:\nfirst:\n%s\nsecond:\n%s", m1, m2)
	}

	// Structural equality of the pieces with comparable representations.
	if !reflect.DeepEqual(cfg1.Platform, cfg2.Platform) {
		t.Errorf("platform spec changed across round-trip:\n%+v\n%+v", cfg1.Platform, cfg2.Platform)
	}
	if !reflect.DeepEqual(cfg1.Failures, cfg2.Failures) {
		t.Errorf("failure override changed across round-trip:\n%+v\n%+v", cfg1.Failures, cfg2.Failures)
	}
	if cfg1.Options != cfg2.Options {
		t.Errorf("options changed across round-trip:\n%+v\n%+v", cfg1.Options, cfg2.Options)
	}
	if cfg1.Algorithm.Name() != cfg2.Algorithm.Name() {
		t.Errorf("algorithm changed: %q vs %q", cfg1.Algorithm.Name(), cfg2.Algorithm.Name())
	}
	w1, err := cfg1.Workload.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := cfg2.Workload.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w1, w2) {
		t.Errorf("workload changed across round-trip:\n%s\nvs\n%s", w1, w2)
	}

	// Identical semantics, the executable definition: both configs must
	// simulate to byte-identical canonical results.
	res1, err := Run(cfg1)
	if err != nil {
		t.Fatalf("run original: %v", err)
	}
	res2, err := Run(cfg2)
	if err != nil {
		t.Fatalf("run round-tripped: %v", err)
	}
	var d1, d2 bytes.Buffer
	if err := res1.WriteJSON(&d1); err != nil {
		t.Fatal(err)
	}
	if err := res2.WriteJSON(&d2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1.Bytes(), d2.Bytes()) {
		t.Errorf("round-tripped config simulates differently:\n%s\nvs\n%s", d1.String(), d2.String())
	}
}

// TestConfigRoundTripAllAlgorithms pins the factory-key reverse lookup:
// every built-in algorithm — including composed ones whose display name
// differs from the factory key ("packed" builds "packed+easy") — must
// survive marshal → parse.
func TestConfigRoundTripAllAlgorithms(t *testing.T) {
	for _, name := range AlgorithmNames() {
		algo, err := NewAlgorithm(name)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Platform:  HomogeneousPlatform("p", 8, 100e9, 10e9, 40e9, 40e9),
			Workload:  mustTinyWorkload(t),
			Algorithm: algo,
		}
		data, err := MarshalConfig(cfg)
		if err != nil {
			t.Errorf("algorithm %q: marshal: %v", name, err)
			continue
		}
		back, err := ParseConfig(data)
		if err != nil {
			t.Errorf("algorithm %q: parse: %v", name, err)
			continue
		}
		if back.Algorithm.Name() != algo.Name() {
			t.Errorf("algorithm %q round-tripped to %q", algo.Name(), back.Algorithm.Name())
		}
	}
}

func mustTinyWorkload(t *testing.T) *Workload {
	t.Helper()
	wl, err := GenerateWorkload(WorkloadConfig{
		Count: 3, Seed: 1, Nodes: [2]int{1, 4}, MachineNodes: 8, NodeSpeed: 100e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// TestParseConfigErrors pins the failure modes that protect API users:
// unknown top-level fields, unknown fairness, unknown algorithms, and
// missing pieces are loud errors, never silent defaults.
func TestParseConfigErrors(t *testing.T) {
	cases := []struct {
		name, doc, want string
	}{
		{"unknown field", `{"platfrom": {}}`, "unknown field"},
		{"missing platform", `{"workload": {"jobs": []}}`, "platform"},
		{"missing workload", `{"platform": {"name": "p", "nodes": [{"count": 1, "speed": 1e9}], "network": {"link_bandwidth": 1e9}}}`, "workload"},
		{"bad algorithm", fullConfigSnippet(`"algorithm": "quantum"`), "unknown algorithm"},
		{"bad fairness", fullConfigSnippet(`"options": {"fairness": "round-robin"}`), "fairness"},
		{"negative horizon", fullConfigSnippet(`"options": {"horizon": -5}`), "horizon"},
		// The reference solver and event queue are test oracles, not options.
		{"force_full_solve", fullConfigSnippet(`"options": {"force_full_solve": true}`), `unknown field "force_full_solve"`},
		{"force_heap_queue", fullConfigSnippet(`"options": {"force_heap_queue": false}`), `unknown field "force_heap_queue"`},
		// The fast-path switch is Go-only: results are identical either way.
		{"disable_fast_path", fullConfigSnippet(`"options": {"disable_fast_path": true}`), `unknown field "disable_fast_path"`},
		{"periodic-only without interval", fullConfigSnippet(`"options": {"disable_event_driven": true}`), "disable_event_driven without a positive invocation_interval"},
	}
	for _, tc := range cases {
		_, err := ParseConfig([]byte(tc.doc))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}

	// The Go API reaches the same periodic-only check through NewSession,
	// before anything is simulated.
	cfg := Config{
		Platform:  HomogeneousPlatform("p", 8, 100e9, 10e9, 40e9, 40e9),
		Workload:  mustTinyWorkload(t),
		Algorithm: NewAdaptive(),
		Options:   Options{DisableEventDriven: true},
	}
	if _, err := NewSession(cfg); err == nil || !strings.Contains(err.Error(), "disable_event_driven") || !strings.Contains(err.Error(), "invocation_interval") {
		t.Errorf("periodic-only session without interval: err = %v, want both options named", err)
	}

	// A hand-built workload with a repeated job ID is refused up front,
	// naming the ID, not mid-run.
	dup := mustTinyWorkload(t)
	dup.Jobs[0].ID, dup.Jobs[1].ID = 0, 0
	cfg = Config{
		Platform:  HomogeneousPlatform("p", 8, 100e9, 10e9, 40e9, 40e9),
		Workload:  dup,
		Algorithm: NewAdaptive(),
	}
	if _, err := NewSession(cfg); err == nil || !strings.Contains(err.Error(), "duplicate job ID 0") {
		t.Errorf("duplicate job IDs: err = %v, want the ID named", err)
	}

	// Custom algorithms cannot be serialized.
	cfg = Config{
		Platform:  HomogeneousPlatform("p", 4, 100e9, 10e9, 40e9, 40e9),
		Workload:  mustTinyWorkload(t),
		Algorithm: customAlgo{},
	}
	if _, err := MarshalConfig(cfg); err == nil || !strings.Contains(err.Error(), "not a built-in") {
		t.Errorf("custom algorithm marshal err = %v, want not-a-built-in error", err)
	}
}

func fullConfigSnippet(extra string) string {
	return `{
  "platform": {"name": "p", "nodes": [{"count": 4, "speed": 1e11}], "network": {"link_bandwidth": 1e10}},
  "workload": {"jobs": [{"name": "j", "type": "rigid", "submit_time": 0, "num_nodes": 1,
    "phases": [{"tasks": [{"type": "compute", "flops": 1e12}]}]}]},
  ` + extra + `
}`
}

type customAlgo struct{ Algorithm }

func (customAlgo) Name() string { return "my-custom-policy" }
