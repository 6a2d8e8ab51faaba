package job

import (
	"strings"
	"testing"
)

const workloadJSONExample = `{
  "name": "demo",
  "jobs": [
    {
      "name": "late",
      "type": "rigid",
      "submit_time": 100,
      "num_nodes": 2,
      "phases": [
        {"tasks": [{"type": "compute", "flops": "1T / num_nodes"}]}
      ]
    },
    {
      "name": "early",
      "type": "malleable",
      "submit_time": 10,
      "num_nodes_min": 2,
      "num_nodes_max": 8,
      "walltime": 3600,
      "args": {"flops": "50T", "io": "4G"},
      "reconfig_cost": "0.5 + io/(num_nodes_new*10G)",
      "phases": [
        {"name": "load", "tasks": [{"type": "read", "target": "pfs", "bytes": "io"}]},
        {"name": "main", "iterations": 20, "scheduling_point": true, "tasks": [
          {"type": "compute", "flops": "flops/20/num_nodes"},
          {"type": "comm", "pattern": "allreduce", "bytes": "64M"}
        ]},
        {"name": "save", "tasks": [{"type": "write", "target": "pfs", "bytes": "io"}]}
      ]
    }
  ]
}`

func TestParseWorkload(t *testing.T) {
	w, err := ParseWorkload([]byte(workloadJSONExample), 16)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "demo" || len(w.Jobs) != 2 {
		t.Fatalf("name=%q jobs=%d", w.Name, len(w.Jobs))
	}
	// Sorted by submit time: "early" first with ID 0.
	if w.Jobs[0].Name != "early" || w.Jobs[0].ID != 0 {
		t.Errorf("first job %q id %d", w.Jobs[0].Name, w.Jobs[0].ID)
	}
	early := w.Jobs[0]
	if early.Type != Malleable || early.NumNodesMin != 2 || early.NumNodesMax != 8 {
		t.Errorf("early: %+v", early)
	}
	if early.WallTimeLimit != 3600 {
		t.Errorf("walltime %v", early.WallTimeLimit)
	}
	if early.Args["flops"] != 50e12 || early.Args["io"] != 4e9 {
		t.Errorf("args %v", early.Args)
	}
	if early.ReconfigCost == nil {
		t.Fatal("reconfig cost missing")
	}
	if len(early.App.Phases) != 3 {
		t.Fatalf("phases %d", len(early.App.Phases))
	}
	main := early.App.Phases[1]
	if main.Iterations != 20 || !main.SchedulingPoint || len(main.Tasks) != 2 {
		t.Errorf("main phase: %+v", main)
	}
	if main.Tasks[1].Kind != TaskComm || main.Tasks[1].Pattern != PatternAllReduce {
		t.Errorf("comm task: %+v", main.Tasks[1])
	}
	if counts := w.CountByType(); counts[Rigid] != 1 || counts[Malleable] != 1 {
		t.Errorf("counts %v", counts)
	}
}

func TestParseWorkloadErrors(t *testing.T) {
	cases := []struct {
		name, src, substr string
	}{
		{"garbage", "{", "decoding"},
		{"wrong cost field", `{"jobs":[{"type":"rigid","submit_time":0,"num_nodes":1,
			"phases":[{"tasks":[{"type":"compute","bytes":1}]}]}]}`, "wrong cost field"},
		{"two cost fields", `{"jobs":[{"type":"rigid","submit_time":0,"num_nodes":1,
			"phases":[{"tasks":[{"type":"compute","flops":1,"bytes":1}]}]}]}`, "exactly one"},
		{"too big", `{"jobs":[{"type":"rigid","submit_time":0,"num_nodes":64,
			"phases":[{"tasks":[{"type":"compute","flops":1}]}]}]}`, "machine"},
		{"undefined var", `{"jobs":[{"type":"rigid","submit_time":0,"num_nodes":1,
			"phases":[{"tasks":[{"type":"compute","flops":"zork"}]}]}]}`, "zork"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseWorkload([]byte(tc.src), 16)
			if err == nil {
				t.Fatal("parse succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.substr) {
				t.Errorf("error %q does not mention %q", err, tc.substr)
			}
		})
	}
}

func TestWorkloadJSONRoundTrip(t *testing.T) {
	w, err := ParseWorkload([]byte(workloadJSONExample), 16)
	if err != nil {
		t.Fatal(err)
	}
	out, err := w.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	w2, err := ParseWorkload(out, 16)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, out)
	}
	if len(w2.Jobs) != len(w.Jobs) {
		t.Fatalf("job count changed: %d -> %d", len(w.Jobs), len(w2.Jobs))
	}
	for i := range w.Jobs {
		a, b := w.Jobs[i], w2.Jobs[i]
		if a.Name != b.Name || a.Type != b.Type || a.SubmitTime != b.SubmitTime ||
			a.NumNodes != b.NumNodes || a.NumNodesMin != b.NumNodesMin ||
			a.NumNodesMax != b.NumNodesMax || a.WallTimeLimit != b.WallTimeLimit {
			t.Errorf("job %d changed: %+v vs %+v", i, a, b)
		}
		if len(a.App.Phases) != len(b.App.Phases) {
			t.Errorf("job %d phase count changed", i)
		}
	}
}

func TestWorkloadSortStability(t *testing.T) {
	w := &Workload{Jobs: []*Job{
		{ID: 0, Name: "b", SubmitTime: 5},
		{ID: 1, Name: "c", SubmitTime: 5},
		{ID: 2, Name: "a", SubmitTime: 1},
	}}
	w.Sort()
	if w.Jobs[0].Name != "a" || w.Jobs[1].Name != "b" || w.Jobs[2].Name != "c" {
		t.Errorf("sort order: %s %s %s", w.Jobs[0].Name, w.Jobs[1].Name, w.Jobs[2].Name)
	}
	for i, j := range w.Jobs {
		if j.ID != ID(i) {
			t.Errorf("job %d has ID %d", i, j.ID)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{
		Seed: 42, Count: 50,
		Arrival:      Arrival{Kind: ArrivalPoisson, Rate: 0.05},
		Nodes:        [2]int{2, 32},
		MachineNodes: 64,
		NodeSpeed:    1e11,
		TypeShares:   map[Type]float64{Rigid: 0.5, Malleable: 0.5},
	}
	w1, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Jobs) != 50 || len(w2.Jobs) != 50 {
		t.Fatalf("counts %d, %d", len(w1.Jobs), len(w2.Jobs))
	}
	for i := range w1.Jobs {
		a, b := w1.Jobs[i], w2.Jobs[i]
		if a.Name != b.Name || a.SubmitTime != b.SubmitTime || a.Type != b.Type ||
			a.NumNodes != b.NumNodes || a.Args["flops_iter"] != b.Args["flops_iter"] {
			t.Fatalf("job %d differs between identical seeds", i)
		}
	}
	// A different seed must differ somewhere.
	cfg.Seed = 43
	w3, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range w1.Jobs {
		if w1.Jobs[i].SubmitTime != w3.Jobs[i].SubmitTime || w1.Jobs[i].NumNodes != w3.Jobs[i].NumNodes {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical workloads")
	}
}

func TestGenerateTypeMix(t *testing.T) {
	cfg := Config{
		Seed: 7, Count: 400,
		Arrival:      Arrival{Kind: ArrivalPoisson, Rate: 0.1},
		Nodes:        [2]int{2, 16},
		MachineNodes: 128,
		NodeSpeed:    1e11,
		TypeShares:   map[Type]float64{Rigid: 1, Malleable: 1},
	}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := w.CountByType()
	if counts[Rigid] < 120 || counts[Malleable] < 120 {
		t.Errorf("mix far from 50/50: %v", counts)
	}
	// Malleable jobs must have scheduling points and reconfig cost.
	for _, j := range w.Jobs {
		if j.Type == Malleable {
			if j.App.TotalSchedulingPoints() == 0 {
				t.Fatalf("malleable job %s has no scheduling points", j.Label())
			}
			if j.ReconfigCost == nil {
				t.Fatalf("malleable job %s has no reconfig cost", j.Label())
			}
		}
	}
}

func TestGenerateValidates(t *testing.T) {
	// All generated jobs must pass validation against the machine.
	cfg := Config{
		Seed: 1, Count: 100,
		Arrival:      Arrival{Kind: ArrivalWeibull, Shape: 0.7, Scale: 30},
		Nodes:        [2]int{1, 64},
		MachineNodes: 64,
		NodeSpeed:    1e11,
		TypeShares:   map[Type]float64{Rigid: 1, Moldable: 1, Malleable: 1, Evolving: 1},
	}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(64); err != nil {
		t.Fatal(err)
	}
	// Evolving jobs carry evolving requests.
	sawEvolving := false
	for _, j := range w.Jobs {
		if j.Type == Evolving {
			sawEvolving = true
			if !j.App.HasEvolvingRequests() {
				t.Fatalf("evolving job %s has no requests", j.Label())
			}
		}
	}
	if !sawEvolving {
		t.Error("no evolving jobs generated")
	}
}

func TestGenerateArrivalKinds(t *testing.T) {
	base := Config{
		Seed: 5, Count: 20, Nodes: [2]int{1, 4}, MachineNodes: 8, NodeSpeed: 1e11,
	}
	// uniform: exact spacing.
	cfg := base
	cfg.Arrival = Arrival{Kind: ArrivalUniform, Rate: 0.5}
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(w.Jobs); i++ {
		if d := w.Jobs[i].SubmitTime - w.Jobs[i-1].SubmitTime; d != 2 {
			t.Fatalf("uniform spacing %v, want 2", d)
		}
	}
	// all: everything at zero.
	cfg = base
	cfg.Arrival = Arrival{Kind: ArrivalAll}
	w, err = Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range w.Jobs {
		if j.SubmitTime != 0 {
			t.Fatalf("ArrivalAll produced submit %v", j.SubmitTime)
		}
	}
	// poisson: strictly increasing.
	cfg = base
	cfg.Arrival = Arrival{Kind: ArrivalPoisson, Rate: 1}
	w, err = Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(w.Jobs); i++ {
		if w.Jobs[i].SubmitTime < w.Jobs[i-1].SubmitTime {
			t.Fatal("poisson submits not monotone")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	good := Config{Count: 1, Nodes: [2]int{1, 2}, NodeSpeed: 1, MachineNodes: 4}
	bad := good
	bad.Count = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero count accepted")
	}
	bad = good
	bad.Nodes = [2]int{0, 2}
	if _, err := Generate(bad); err == nil {
		t.Error("zero min nodes accepted")
	}
	bad = good
	bad.NodeSpeed = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero node speed accepted")
	}
}

func TestSWFParse(t *testing.T) {
	trace := `; Comment header
; MaxNodes: 128
  1  0   10  3600  64 -1 -1  64  7200 -1 1 1 1 1 1 1 -1 -1
  2  60  5   100   4  -1 -1  4   200  -1 1 1 1 1 1 1 -1 -1
  3  120 0   0     4  -1 -1  4   200  -1 1 1 1 1 1 1 -1 -1
  4  180 0   50    0  -1 -1  8   100  -1 1 1 1 1 1 1 -1 -1
  5  240 0   500   512 -1 -1 512 900  -1 1 1 1 1 1 1 -1 -1
`
	w, err := ParseSWF(strings.NewReader(trace), SWFOptions{
		CoresPerNode: 4,
		NodeSpeed:    1e9,
		MaxNodes:     32,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Job 3 dropped (zero runtime), job 5 dropped (too big after /4 = 128 > 32).
	if len(w.Jobs) != 3 {
		t.Fatalf("kept %d jobs, want 3", len(w.Jobs))
	}
	j := w.Jobs[0]
	if j.NumNodes != 16 { // 64 procs / 4 cores
		t.Errorf("nodes = %d, want 16", j.NumNodes)
	}
	if j.WallTimeLimit != 7200 {
		t.Errorf("walltime = %v", j.WallTimeLimit)
	}
	// Flops calibrated: runtime * speed * nodes.
	if got := j.Args["flops"]; got != 3600*1e9*16 {
		t.Errorf("flops = %v", got)
	}
	// Job 4: used procs 0 falls back to requested (8/4 = 2 nodes).
	j4 := w.Jobs[2]
	if j4.NumNodes != 2 {
		t.Errorf("fallback nodes = %d, want 2", j4.NumNodes)
	}
}

func TestSWFMalleableConversion(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 10; i++ {
		sb.WriteString("1 0 0 100 8 -1 -1 8 200 -1 1 1 1 1 1 1 -1 -1\n")
	}
	w, err := ParseSWF(strings.NewReader(sb.String()), SWFOptions{
		NodeSpeed:         1e9,
		MalleableFraction: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := w.CountByType()
	if counts[Malleable] != 5 || counts[Rigid] != 5 {
		t.Errorf("conversion counts %v, want 5/5", counts)
	}
	for _, j := range w.Jobs {
		if j.Type == Malleable {
			if j.NumNodesMin != 4 || j.NumNodesMax != 16 {
				t.Errorf("malleable range [%d,%d], want [4,16]", j.NumNodesMin, j.NumNodesMax)
			}
			if j.App.TotalSchedulingPoints() == 0 {
				t.Error("converted malleable job lacks scheduling points")
			}
		}
	}
}

func TestSWFErrors(t *testing.T) {
	if _, err := ParseSWF(strings.NewReader(""), SWFOptions{}); err == nil {
		t.Error("missing node speed accepted")
	}
	if _, err := ParseSWF(strings.NewReader("1 2 3"), SWFOptions{NodeSpeed: 1}); err == nil {
		t.Error("short line accepted")
	}
	if _, err := ParseSWF(strings.NewReader("1 x 0 1 1 0 0 1 1 0 1 1 1 1 1 1 -1 -1"), SWFOptions{NodeSpeed: 1}); err == nil {
		t.Error("non-numeric field accepted")
	}
}

// TestSWFNonFiniteTimes: strconv.ParseFloat reads "NaN" and "Inf", so a
// trace can carry non-finite values. ParseSWF refuses them in the fields
// the conversion computes with, naming the line and the field; a
// non-finite submit time passes the reader and validation refuses it,
// naming the job, before it reaches the event queue.
func TestSWFNonFiniteTimes(t *testing.T) {
	for _, tc := range []struct {
		set   map[int]string // fields overriding a clean record
		want  string
		parse bool // refused by ParseSWF, not by Validate
	}{
		{map[int]string{swfSubmitTime: "NaN"}, "job swf0: submit time NaN", false},
		{map[int]string{swfSubmitTime: "Inf"}, "job swf0: submit time +Inf", false},
		{map[int]string{swfReqTime: "NaN"}, "SWF line 2 field 8 (requested time): non-finite value NaN", true},
		{map[int]string{swfReqTime: "-Inf"}, "SWF line 2 field 8 (requested time): non-finite value -Inf", true},
		{map[int]string{swfRunTime: "NaN"}, "SWF line 2 field 3 (run time): non-finite value NaN", true},
		{map[int]string{swfRunTime: "+Inf"}, "SWF line 2 field 3 (run time): non-finite value +Inf", true},
		{map[int]string{swfUsedProcs: "Inf"}, "SWF line 2 field 4 (used procs): non-finite value Inf", true},
		{map[int]string{swfUsedProcs: "-1", swfReqProcs: "NaN"}, "SWF line 2 field 7 (requested procs): non-finite value NaN", true},
		{map[int]string{swfStatus: "nan"}, "SWF line 2 field 10 (status): non-finite value nan", true},
	} {
		fields := strings.Fields("1 0 0 100 8 -1 -1 8 200 -1 1 1 1 1 1 1 -1 -1")
		for i, v := range tc.set {
			fields[i] = v
		}
		trace := "; header\n" + strings.Join(fields, " ") + "\n"
		w, err := ParseSWF(strings.NewReader(trace), SWFOptions{NodeSpeed: 1e9})
		if !tc.parse {
			if err != nil {
				t.Fatalf("%v: %v", tc.set, err)
			}
			err = w.Validate(64)
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: error %v, want %q", tc.set, err, tc.want)
		}
	}
}

func TestSWFMaxJobs(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 100; i++ {
		sb.WriteString("1 0 0 100 8 -1 -1 8 200 -1 1 1 1 1 1 1 -1 -1\n")
	}
	w, err := ParseSWF(strings.NewReader(sb.String()), SWFOptions{NodeSpeed: 1, MaxJobs: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Jobs) != 7 {
		t.Errorf("kept %d jobs, want 7", len(w.Jobs))
	}
}
