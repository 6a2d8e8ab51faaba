package extsched

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/elastisim"
	"repro/internal/job"
	"repro/internal/sched"
)

// pipePeer runs Serve(algo) connected to a Bridge entirely in-process.
func pipePeer(t *testing.T, algo sched.Algorithm) (*Bridge, chan error) {
	t.Helper()
	toPeerR, toPeerW := io.Pipe()
	fromPeerR, fromPeerW := io.Pipe()
	done := make(chan error, 1)
	go func() {
		done <- Serve(algo, toPeerR, fromPeerW)
		fromPeerW.Close()
	}()
	return NewBridge("pipe", fromPeerR, toPeerW), done
}

func TestBridgeEndToEndSimulation(t *testing.T) {
	// A full simulation scheduled by an out-of-process-style FCFS running
	// behind the JSON protocol must produce exactly the same results as
	// the in-process FCFS.
	gen := func() *elastisim.Workload {
		wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
			Seed: 5, Count: 25,
			Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.05},
			Nodes:        [2]int{1, 8},
			MachineNodes: 16,
			NodeSpeed:    100e9,
			TypeShares:   map[job.Type]float64{job.Rigid: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	spec := elastisim.HomogeneousPlatform("x", 16, 100e9, 10e9, 40e9, 40e9)

	direct, err := elastisim.Run(elastisim.Config{
		Platform: spec, Workload: gen(), Algorithm: elastisim.NewFCFS(),
	})
	if err != nil {
		t.Fatal(err)
	}

	bridge, done := pipePeer(t, &sched.FCFS{})
	bridged, err := elastisim.Run(elastisim.Config{
		Platform: spec, Workload: gen(), Algorithm: bridge,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bridge.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("peer: %v", err)
	}
	if bridge.Err() != nil {
		t.Fatalf("bridge: %v", bridge.Err())
	}
	if direct.Summary != bridged.Summary {
		t.Errorf("bridged run diverged:\ndirect  %+v\nbridged %+v", direct.Summary, bridged.Summary)
	}
}

func TestBridgeMalleableDecisionsCrossTheWire(t *testing.T) {
	// The adaptive policy behind the bridge must decide exactly as it does
	// in process on a mixed workload: same starts (at the requested size,
	// which the wire view must carry), resizes and grants.
	gen := func() *elastisim.Workload {
		wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
			Seed: 6, Count: 40,
			Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.05},
			Nodes:        [2]int{2, 8},
			MachineNodes: 16,
			NodeSpeed:    100e9,
			TypeShares: map[job.Type]float64{
				job.Rigid: 1, job.Moldable: 1, job.Malleable: 2, job.Evolving: 1,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return wl
	}
	spec := elastisim.HomogeneousPlatform("x", 16, 100e9, 10e9, 40e9, 40e9)

	direct, err := elastisim.Run(elastisim.Config{
		Platform: spec, Workload: gen(), Algorithm: &sched.Adaptive{},
	})
	if err != nil {
		t.Fatal(err)
	}

	bridge, done := pipePeer(t, &sched.Adaptive{})
	bridged, err := elastisim.Run(elastisim.Config{
		Platform: spec, Workload: gen(), Algorithm: bridge,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := bridge.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("peer: %v", err)
	}
	if bridge.Err() != nil {
		t.Fatalf("bridge: %v", bridge.Err())
	}
	if direct.Summary.Reconfigs == 0 {
		t.Fatal("the workload exercises no reconfiguration")
	}
	if direct.Summary != bridged.Summary {
		t.Errorf("bridged run diverged:\ndirect  %+v\nbridged %+v", direct.Summary, bridged.Summary)
	}
	if len(direct.Records) != len(bridged.Records) {
		t.Fatalf("%d records in process, %d bridged", len(direct.Records), len(bridged.Records))
	}
	for i, r := range direct.Records {
		if !reflect.DeepEqual(*r, *bridged.Records[i]) {
			t.Errorf("job %d diverged:\ndirect  %+v\nbridged %+v", r.ID, *r, *bridged.Records[i])
		}
	}
}

func TestBridgeProtocolError(t *testing.T) {
	// A peer that answers garbage poisons the bridge instead of panicking.
	in := strings.NewReader(`{"type":"nonsense"}` + "\n")
	var out strings.Builder
	b := NewBridge("bad", in, &out)
	ds := b.Schedule(&sched.Invocation{})
	if ds != nil {
		t.Errorf("decisions from bad peer: %v", ds)
	}
	if b.Err() == nil {
		t.Error("protocol error not recorded")
	}
	// Subsequent calls stay inert.
	if ds := b.Schedule(&sched.Invocation{}); ds != nil {
		t.Error("poisoned bridge still returning decisions")
	}
}

func TestBridgePeerReportsError(t *testing.T) {
	in := strings.NewReader(`{"type":"decisions","error":"boom"}` + "\n")
	var out strings.Builder
	b := NewBridge("err", in, &out)
	b.Schedule(&sched.Invocation{})
	if b.Err() == nil || !strings.Contains(b.Err().Error(), "boom") {
		t.Errorf("peer error not surfaced: %v", b.Err())
	}
}

func TestBridgeUnknownDecisionKind(t *testing.T) {
	in := strings.NewReader(`{"type":"decisions","decisions":[{"kind":"launch","job":0}]}` + "\n")
	var out strings.Builder
	b := NewBridge("k", in, &out)
	b.Schedule(&sched.Invocation{})
	if b.Err() == nil || !strings.Contains(b.Err().Error(), "launch") {
		t.Errorf("unknown kind not rejected: %v", b.Err())
	}
}

func TestDecisionKindRoundTrip(t *testing.T) {
	kinds := []sched.DecisionKind{
		sched.DecisionStart, sched.DecisionResize, sched.DecisionGrant,
		sched.DecisionDeny, sched.DecisionKill,
	}
	for _, k := range kinds {
		name := KindName(k)
		back, err := ParseDecisionKind(name)
		if err != nil || back != k {
			t.Errorf("%v -> %q -> %v (%v)", k, name, back, err)
		}
	}
	if _, err := ParseDecisionKind("fork"); err == nil {
		t.Error("unknown kind parsed")
	}
}

func TestViewMsgCarriesEverything(t *testing.T) {
	v := sched.NewJobView(&job.Job{
		ID: 3, Name: "m", Type: job.Malleable, SubmitTime: 5,
		NumNodesMin: 2, NumNodesMax: 16, NumNodes: 6, WallTimeLimit: 100,
	})
	v.State = sched.StateRunning
	v.Nodes = 8
	v.AtSchedulingPoint = true
	v.EvolvingRequest = 12
	v.StartTime = 10
	v.ExpectedEnd = 110
	m := viewMsg(&v)
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back jobViewMsg
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	v2 := viewFromMsg(&back)
	if v2.ID != 3 || v2.Job.Type != job.Malleable || v2.Nodes != 8 ||
		!v2.AtSchedulingPoint || v2.EvolvingRequest != 12 ||
		v2.Job.MinNodes() != 2 || v2.Job.MaxNodes() != 16 || v2.Job.NumNodes != 6 ||
		v2.ExpectedEnd != 110 || v2.StartTime != 10 || v2.SubmitTime != 5 {
		t.Errorf("round trip lost data: %+v", v2)
	}
	// The view's copied bounds are the skeleton job's, as NewJobView has
	// them.
	want := sched.NewJobView(v2.Job)
	if v2.Type != want.Type || v2.MinNodes != want.MinNodes || v2.MaxNodes != want.MaxNodes ||
		v2.ReqNodes != 6 || v2.WallTime != 100 {
		t.Errorf("round trip view bounds: %+v", v2)
	}
}

// TestHelperProcessScheduler is not a real test: when re-executed with the
// marker environment variable it acts as an external FCFS scheduler
// speaking the protocol on stdio.
func TestHelperProcessScheduler(t *testing.T) {
	if os.Getenv("EXTSCHED_HELPER") != "1" {
		return
	}
	if err := Serve(&sched.FCFS{}, os.Stdin, os.Stdout); err != nil {
		os.Exit(1)
	}
	os.Exit(0)
}

func TestProcessBridge(t *testing.T) {
	// Launch ourselves as the external scheduler and run a simulation
	// through a real process boundary.
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("no test executable: %v", err)
	}
	proc, err := StartProcess(
		[]string{exe, "-test.run=TestHelperProcessScheduler"},
		"EXTSCHED_HELPER=1",
	)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
		Seed: 5, Count: 15,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.05},
		Nodes:        [2]int{1, 8},
		MachineNodes: 16,
		NodeSpeed:    100e9,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := elastisim.Run(elastisim.Config{
		Platform:  elastisim.HomogeneousPlatform("x", 16, 100e9, 10e9, 40e9, 40e9),
		Workload:  wl,
		Algorithm: proc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := proc.Close(); err != nil {
		t.Fatalf("closing external scheduler: %v", err)
	}
	if res.Summary.Completed != 15 {
		t.Errorf("completed %d/15 via external scheduler", res.Summary.Completed)
	}
}
