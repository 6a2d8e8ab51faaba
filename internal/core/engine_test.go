package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/failure"
	"repro/internal/job"
	"repro/internal/metrics"
	"repro/internal/platform"
	"repro/internal/sched"
)

const (
	speed  = 1e9 // 1 Gflop/s nodes
	linkBW = 1e9 // 1 GB/s links
	pfsBW  = 2e9 // 2 GB/s PFS (both directions)
)

func testPlatform(nodes int) *platform.Spec {
	return platform.Homogeneous("test", nodes, speed, linkBW, pfsBW, pfsBW)
}

func computeJob(id int, nodes int, flops float64) *job.Job {
	return &job.Job{
		ID: job.ID(id), Type: job.Rigid, NumNodes: nodes,
		Args: map[string]float64{"flops": flops},
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskCompute, Model: job.MustExprModel("flops / num_nodes")}},
		}}},
	}
}

// Run drives the engine to completion in one Advance and returns Finish's
// answer. An engine runs once.
func (e *Engine) Run() (*metrics.Recorder, error) {
	if e.started {
		return nil, fmt.Errorf("core: engine already ran")
	}
	e.Advance(math.Inf(1), math.MaxInt)
	return e.Finish()
}

func runSim(t *testing.T, spec *platform.Spec, jobs []*job.Job, algo sched.Algorithm, opts Options) (*metrics.Recorder, *Engine) {
	t.Helper()
	w := &job.Workload{Jobs: jobs}
	w.Sort()
	e, err := New(spec, w, algo, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	return rec, e
}

// collect returns an event-log consumer that appends each record to *log.
func collect(log *[]TraceEvent) func(TraceEvent) {
	return func(ev TraceEvent) { *log = append(*log, ev) }
}

// record returns job id's record, or nil when the job was never submitted.
func record(rec *metrics.Recorder, id job.ID) *metrics.JobRecord {
	for _, r := range rec.Records() {
		if r.ID == id {
			return r
		}
	}
	return nil
}

func wantClose(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Errorf("%s = %v, want %v", what, got, want)
	}
}

func TestSingleComputeJobAnalytic(t *testing.T) {
	// 1e12 flops over 4 nodes at 1e9 flops/s: 250 s.
	rec, _ := runSim(t, testPlatform(8), []*job.Job{computeJob(0, 4, 1e12)}, &sched.FCFS{}, Options{})
	r := record(rec, 0)
	wantClose(t, "wait", r.Wait(), 0)
	wantClose(t, "runtime", r.Runtime(), 250)
	s := rec.Summary()
	wantClose(t, "makespan", s.Makespan, 250)
	// 4 of 8 nodes busy the whole time.
	wantClose(t, "utilization", s.Utilization, 0.5)
}

func TestCommJobAnalytic(t *testing.T) {
	// Ring allreduce of 1 GB on 4 nodes at 1 GB/s links:
	// 2*(4-1)/4 = 1.5 GB per link -> 1.5 s.
	j := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 4,
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskComm, Model: job.MustExprModel("1G"), Pattern: job.PatternAllReduce}},
		}}},
	}
	rec, _ := runSim(t, testPlatform(8), []*job.Job{j}, &sched.FCFS{}, Options{})
	wantClose(t, "allreduce runtime", record(rec, 0).Runtime(), 1.5)
}

func TestCommPatternsAnalytic(t *testing.T) {
	cases := []struct {
		pattern job.CommPattern
		nodes   int
		want    float64 // seconds for 1 GB payload on 1 GB/s links
	}{
		{job.PatternAllReduce, 4, 1.5}, // 2(n-1)/n
		{job.PatternAllToAll, 4, 3},    // n-1
		{job.PatternRing, 4, 1},        // 1
		{job.PatternBroadcast, 8, 3},   // root log2(8)=3 is the bottleneck
		{job.PatternGather, 5, 4},      // root receives n-1
	}
	for _, tc := range cases {
		j := &job.Job{
			ID: 0, Type: job.Rigid, NumNodes: tc.nodes,
			App: &job.Application{Phases: []job.Phase{{
				Tasks: []job.Task{{Kind: job.TaskComm, Model: job.MustExprModel("1G"), Pattern: tc.pattern}},
			}}},
		}
		rec, _ := runSim(t, testPlatform(8), []*job.Job{j}, &sched.FCFS{}, Options{})
		wantClose(t, string(tc.pattern), record(rec, 0).Runtime(), tc.want)
	}
}

func TestCommSingleNodeIsFree(t *testing.T) {
	j := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 1,
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskComm, Model: job.MustExprModel("1G"), Pattern: job.PatternAllReduce}},
		}}},
	}
	rec, _ := runSim(t, testPlatform(2), []*job.Job{j}, &sched.FCFS{}, Options{})
	wantClose(t, "single-node comm", record(rec, 0).Runtime(), 0)
}

func TestIOJobAnalytic(t *testing.T) {
	// Read 8 GB on 2 nodes: PFS 2 GB/s vs links 2*1 GB/s -> 2 GB/s -> 4 s.
	j := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 2,
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskRead, Model: job.MustExprModel("8G"), Target: job.TargetPFS}},
		}}},
	}
	rec, _ := runSim(t, testPlatform(4), []*job.Job{j}, &sched.FCFS{}, Options{})
	wantClose(t, "read runtime", record(rec, 0).Runtime(), 4)
	// On 1 node the link (1 GB/s) is the bottleneck: 8 s.
	j2 := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 1,
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskRead, Model: job.MustExprModel("8G"), Target: job.TargetPFS}},
		}}},
	}
	rec2, _ := runSim(t, testPlatform(4), []*job.Job{j2}, &sched.FCFS{}, Options{})
	wantClose(t, "link-bound read", record(rec2, 0).Runtime(), 8)
}

func TestPFSContentionFairShare(t *testing.T) {
	// Two 1-node jobs each writing 4 GB to a 2 GB/s PFS simultaneously:
	// links allow 1 GB/s each, PFS allows 1 GB/s each -> both take 4 s.
	// With 2 GB/s links the PFS at 2 GB/s is the contended resource: each
	// job gets 1 GB/s -> 4 s; alone each would take 2 s.
	spec := platform.Homogeneous("c", 2, speed, 2e9, 2e9, 2e9)
	mk := func(id int) *job.Job {
		return &job.Job{
			ID: job.ID(id), Type: job.Rigid, NumNodes: 1,
			App: &job.Application{Phases: []job.Phase{{
				Tasks: []job.Task{{Kind: job.TaskWrite, Model: job.MustExprModel("4G"), Target: job.TargetPFS}},
			}}},
		}
	}
	rec, _ := runSim(t, spec, []*job.Job{mk(0), mk(1)}, &sched.FCFS{}, Options{})
	wantClose(t, "contended write 0", record(rec, 0).Runtime(), 4)
	wantClose(t, "contended write 1", record(rec, 1).Runtime(), 4)
}

func TestBurstBufferAvoidsContention(t *testing.T) {
	// Same two writers, but node-local burst buffers at 2 GB/s: no
	// contention, 2 s each.
	spec := platform.Homogeneous("c", 2, speed, 2e9, 2e9, 2e9)
	spec.BurstBuffer = &platform.BurstBufferSpec{
		Kind: platform.BBNodeLocal, ReadBandwidth: 2e9, WriteBandwidth: 2e9,
	}
	mk := func(id int) *job.Job {
		return &job.Job{
			ID: job.ID(id), Type: job.Rigid, NumNodes: 1,
			App: &job.Application{Phases: []job.Phase{{
				Tasks: []job.Task{{Kind: job.TaskWrite, Model: job.MustExprModel("4G"), Target: job.TargetBB}},
			}}},
		}
	}
	rec, _ := runSim(t, spec, []*job.Job{mk(0), mk(1)}, &sched.FCFS{}, Options{})
	wantClose(t, "bb write 0", record(rec, 0).Runtime(), 2)
	wantClose(t, "bb write 1", record(rec, 1).Runtime(), 2)
}

func TestDelayTask(t *testing.T) {
	j := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 1,
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskDelay, Model: job.MustExprModel("12.5")}},
		}}},
	}
	rec, _ := runSim(t, testPlatform(1), []*job.Job{j}, &sched.FCFS{}, Options{})
	wantClose(t, "delay runtime", record(rec, 0).Runtime(), 12.5)
}

func TestMultiPhaseSequencing(t *testing.T) {
	// read 2 GB (PFS 2 GB/s, 2 nodes: 1 s) + compute 1e10/node (10 s)
	// + allreduce 1 GB (1 s) repeated twice + write 2 GB (1 s):
	// total = 1 + 2*(10+1) + 1 = 24 s.
	j := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 2,
		Args: map[string]float64{"w": 1e10},
		App: &job.Application{Phases: []job.Phase{
			{Tasks: []job.Task{{Kind: job.TaskRead, Model: job.MustExprModel("2G"), Target: job.TargetPFS}}},
			{Iterations: 2, Tasks: []job.Task{
				{Kind: job.TaskCompute, Model: job.MustExprModel("w")},
				{Kind: job.TaskComm, Model: job.MustExprModel("1G"), Pattern: job.PatternAllReduce},
			}},
			{Tasks: []job.Task{{Kind: job.TaskWrite, Model: job.MustExprModel("2G"), Target: job.TargetPFS}}},
		}},
	}
	rec, _ := runSim(t, testPlatform(2), []*job.Job{j}, &sched.FCFS{}, Options{})
	wantClose(t, "multi-phase runtime", record(rec, 0).Runtime(), 24)
}

func TestFCFSQueueing(t *testing.T) {
	// 4-node machine, three 4-node jobs of 100 s: strictly serialized.
	jobs := []*job.Job{}
	for i := 0; i < 3; i++ {
		j := computeJob(i, 4, 4e11) // 100 s on 4 nodes
		j.SubmitTime = float64(i)
		jobs = append(jobs, j)
	}
	rec, _ := runSim(t, testPlatform(4), jobs, &sched.FCFS{}, Options{})
	wantClose(t, "job0 start", record(rec, 0).Start, 0)
	wantClose(t, "job1 start", record(rec, 1).Start, 100)
	wantClose(t, "job2 start", record(rec, 2).Start, 200)
	s := rec.Summary()
	wantClose(t, "makespan", s.Makespan, 300)
	wantClose(t, "utilization", s.Utilization, 1)
}

func TestWalltimeKill(t *testing.T) {
	j := computeJob(0, 2, 1e12) // would run 500 s
	j.WallTimeLimit = 100
	rec, _ := runSim(t, testPlatform(2), []*job.Job{j}, &sched.FCFS{}, Options{})
	r := record(rec, 0)
	if !r.Killed {
		t.Fatal("job not killed at walltime")
	}
	wantClose(t, "kill time", r.End, 100)
	s := rec.Summary()
	if s.Killed != 1 || s.Completed != 0 {
		t.Errorf("summary %+v", s)
	}
}

func malleableJob(id int, minN, maxN, start, iters int, flopsPerIter float64) *job.Job {
	return &job.Job{
		ID: job.ID(id), Type: job.Malleable,
		NumNodesMin: minN, NumNodesMax: maxN, NumNodes: start,
		Args: map[string]float64{"w": flopsPerIter},
		App: &job.Application{Phases: []job.Phase{{
			Iterations:      iters,
			SchedulingPoint: true,
			Tasks:           []job.Task{{Kind: job.TaskCompute, Model: job.MustExprModel("w / num_nodes")}},
		}}},
	}
}

func TestMalleableExpansion(t *testing.T) {
	// Alone on 8 nodes, starting at 2: after iteration 0 the adaptive
	// policy expands to 8. Work 4.8e10/iter:
	// iter0: 4.8e10/2/1e9 = 24 s; iter1, iter2: 6 s each. Total 36 s.
	j := malleableJob(0, 2, 8, 2, 3, 4.8e10)
	rec, e := runSim(t, testPlatform(8), []*job.Job{j}, &sched.Adaptive{}, Options{})
	r := record(rec, 0)
	wantClose(t, "runtime", r.Runtime(), 36)
	if r.Reconfigs != 1 {
		t.Errorf("reconfigs = %d, want 1", r.Reconfigs)
	}
	if r.PeakNodes != 8 || r.InitialNodes != 2 {
		t.Errorf("allocation history %d..%d", r.InitialNodes, r.PeakNodes)
	}
	if len(e.Warnings()) != 0 {
		t.Errorf("warnings: %v", e.Warnings())
	}
}

func TestMalleableReconfigCost(t *testing.T) {
	j := malleableJob(0, 2, 8, 2, 3, 4.8e10)
	j.ReconfigCost = job.MustExprModel("10")
	rec, _ := runSim(t, testPlatform(8), []*job.Job{j}, &sched.Adaptive{}, Options{})
	// 36 s of work + 10 s reconfiguration.
	wantClose(t, "runtime with cost", record(rec, 0).Runtime(), 46)
}

func TestReconfigCostEnvironment(t *testing.T) {
	// The cost sees the sizes before and after the reconfiguration ahead
	// of the job's arguments (a same-named argument is shadowed), then the
	// arguments and the engine's names: the 2 -> 8 expansion costs
	// 2 + 8 + 4.8e10/4.8e10 + 8 = 19 s.
	j := malleableJob(0, 2, 8, 2, 3, 4.8e10)
	j.Args["num_nodes_old"] = 100
	j.ReconfigCost = job.MustExprModel("num_nodes_old + num_nodes_new + w/4.8e10 + num_nodes")
	rec, _ := runSim(t, testPlatform(8), []*job.Job{j}, &sched.Adaptive{}, Options{})
	wantClose(t, "runtime with cost", record(rec, 0).Runtime(), 36+19)
}

func TestMalleableShrinkToAdmit(t *testing.T) {
	// Malleable at 8/8 nodes with 20 s iterations; rigid 4-node job
	// arrives at t=5. At the next scheduling point (t=20) the policy
	// shrinks the malleable job to 4 and starts the rigid one.
	m := malleableJob(0, 2, 8, 8, 5, 1.6e11) // 20 s per iter at 8 nodes
	r := computeJob(1, 4, 4e10)              // 10 s on 4 nodes
	r.SubmitTime = 5
	rec, _ := runSim(t, testPlatform(8), []*job.Job{m, r}, &sched.Adaptive{}, Options{})
	rr := record(rec, 1)
	wantClose(t, "rigid start", rr.Start, 20)
	mr := record(rec, 0)
	if mr.Reconfigs < 1 {
		t.Errorf("malleable job never reconfigured")
	}
	// After the rigid job ends (t=30), the next scheduling point gives
	// the nodes back: peak returns to 8.
	if mr.FinalNodes != 8 {
		t.Errorf("malleable end allocation %d, want 8 (re-expanded)", mr.FinalNodes)
	}
}

func TestEvolvingGrantFlow(t *testing.T) {
	// Evolving job: phase 1 requests growth to 8, applied at the next
	// scheduling point; engine + adaptive policy grant it fully (machine
	// empty).
	j := &job.Job{
		ID: 0, Type: job.Evolving,
		NumNodesMin: 2, NumNodesMax: 8, NumNodes: 2,
		Args: map[string]float64{"w": 2e10},
		App: &job.Application{Phases: []job.Phase{{
			Iterations:      3,
			SchedulingPoint: true,
			Tasks: []job.Task{
				{Kind: job.TaskEvolvingRequest, Model: job.MustExprModel("8")},
				{Kind: job.TaskCompute, Model: job.MustExprModel("w / num_nodes")},
			},
		}}},
	}
	var log []TraceEvent
	rec, _ := runSim(t, testPlatform(8), []*job.Job{j}, &sched.Adaptive{}, Options{Trace: collect(&log)})
	r := record(rec, 0)
	if r.PeakNodes != 8 {
		t.Errorf("evolving job peak %d, want 8", r.PeakNodes)
	}
	if r.Reconfigs < 1 {
		t.Error("grant never applied")
	}
	// iter0 on 2 nodes: 10 s; iter1, iter2 on 8: 2.5 s each = 15 s.
	wantClose(t, "runtime", r.Runtime(), 15)
	sawRequest, sawGrant := false, false
	for _, ev := range log {
		switch ev.Kind {
		case EvEvolvingRequest:
			sawRequest = true
		case EvGranted:
			sawGrant = true
		}
	}
	if !sawRequest || !sawGrant {
		t.Errorf("trace missing request/grant: %v", log)
	}
}

func TestMoldableSizing(t *testing.T) {
	j := &job.Job{
		ID: 0, Type: job.Moldable,
		NumNodesMin: 1, NumNodesMax: 8, NumNodes: 2,
		Args: map[string]float64{"w": 8e10},
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskCompute, Model: job.MustExprModel("w / num_nodes")}},
		}}},
	}
	// MaxSize starts it on all 8 free nodes: 10 s.
	rec, _ := runSim(t, testPlatform(8), []*job.Job{j}, &sched.EASY{Size: sched.MaxSize}, Options{})
	wantClose(t, "moldable max runtime", record(rec, 0).Runtime(), 10)
	if record(rec, 0).InitialNodes != 8 {
		t.Errorf("moldable started on %d nodes", record(rec, 0).InitialNodes)
	}
}

func TestPeriodicOnlyInvocation(t *testing.T) {
	// With event-driven invocation disabled, jobs start only on the
	// periodic tick (every 10 s).
	j := computeJob(0, 2, 2e10) // 10 s
	j.SubmitTime = 1
	rec, e := runSim(t, testPlatform(2), []*job.Job{j}, &sched.FCFS{}, Options{
		InvocationInterval: 10,
		DisableEventDriven: true,
	})
	wantClose(t, "start on tick", record(rec, 0).Start, 10)
	if e.TelemetrySnapshot().Scheduler.Invocations == 0 {
		t.Error("no invocations")
	}
}

// badAlgorithm exercises the engine's decision validation.
type badAlgorithm struct {
	fcfs FCFSRef
}

// FCFSRef avoids an import cycle in the test by aliasing sched.FCFS.
type FCFSRef = sched.FCFS

func (b *badAlgorithm) Name() string { return "bad" }

func (b *badAlgorithm) Schedule(inv *sched.Invocation) []sched.Decision {
	var out []sched.Decision
	// Nonsense first: unknown job, rigid resize, oversized start.
	out = append(out,
		sched.Decision{Kind: sched.DecisionStart, Job: 999, NumNodes: 1},
		sched.Decision{Kind: sched.DecisionResize, Job: 0, NumNodes: 4},
	)
	for _, v := range inv.Pending {
		out = append(out, sched.Start(v.ID, v.Job.NumNodes*100)) // too big
	}
	// Then legitimate decisions so the simulation completes.
	out = append(out, b.fcfs.Schedule(inv)...)
	return out
}

func TestEngineRejectsInvalidDecisions(t *testing.T) {
	j := computeJob(0, 2, 2e10)
	rec, e := runSim(t, testPlatform(4), []*job.Job{j}, &badAlgorithm{}, Options{})
	if rec.Summary().Completed != 1 {
		t.Fatal("job did not complete")
	}
	if len(e.Warnings()) == 0 {
		t.Fatal("invalid decisions produced no warnings")
	}
	joined := strings.Join(e.Warnings(), "\n")
	for _, want := range []string{"unknown job", "only malleable", "requested 2"} {
		if !strings.Contains(joined, want) {
			t.Errorf("warnings missing %q:\n%s", want, joined)
		}
	}
}

// idleAlgorithm never starts anything: the engine must detect deadlock.
type idleAlgorithm struct{}

func (idleAlgorithm) Name() string                                { return "idle" }
func (idleAlgorithm) Schedule(*sched.Invocation) []sched.Decision { return nil }

func TestEngineDetectsDeadlock(t *testing.T) {
	w := &job.Workload{Jobs: []*job.Job{computeJob(0, 2, 1e10)}}
	e, err := New(testPlatform(4), w, idleAlgorithm{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("deadlocked run returned no error")
	}
}

func TestEngineRejectsUnsupportedStorage(t *testing.T) {
	spec := testPlatform(4)
	spec.PFS = nil
	j := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 1,
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskRead, Model: job.MustExprModel("1G"), Target: job.TargetPFS}},
		}}},
	}
	w := &job.Workload{Jobs: []*job.Job{j}}
	if _, err := New(spec, w, &sched.FCFS{}, Options{}); err == nil {
		t.Fatal("PFS-less platform accepted a PFS workload")
	}
}

func TestEngineDeterminism(t *testing.T) {
	gen := func() *job.Workload {
		w, err := job.Generate(job.Config{
			Seed: 11, Count: 40,
			Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.02},
			Nodes:        [2]int{1, 8},
			MachineNodes: 16,
			NodeSpeed:    speed,
			TypeShares:   map[job.Type]float64{job.Rigid: 0.5, job.Malleable: 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	run := func() metrics.Summary {
		rec, _ := runSim(t, testPlatform(16), gen().Jobs, &sched.Adaptive{}, Options{})
		return rec.Summary()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("two identical runs diverged:\n%+v\n%+v", a, b)
	}
}

func TestEngineRunTwiceFails(t *testing.T) {
	w := &job.Workload{Jobs: []*job.Job{computeJob(0, 1, 1e9)}}
	e, err := New(testPlatform(2), w, &sched.FCFS{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatal("second Run succeeded")
	}
}

func TestGanttSegments(t *testing.T) {
	j := malleableJob(0, 2, 8, 2, 3, 4.8e10)
	rec, _ := runSim(t, testPlatform(8), []*job.Job{j}, &sched.Adaptive{}, Options{})
	g := rec.Gantt()
	if len(g) != 2 {
		t.Fatalf("gantt segments %d, want 2 (before/after expand)", len(g))
	}
	if g[0].Nodes != 2 || g[1].Nodes != 8 {
		t.Errorf("segment sizes %d,%d", g[0].Nodes, g[1].Nodes)
	}
	wantClose(t, "seg0 end", g[0].End, g[1].Start)
}

func TestBackboneContention(t *testing.T) {
	// Backbone at 1 GB/s shared by two 2-node jobs doing alltoall of 1 GB:
	// per-link demand 1 GB/s*1, backbone demand n^2/4 = 1 per payload byte.
	// Each job's backbone share: 0.5 GB/s -> duration 2 s (vs 1 s alone).
	spec := testPlatform(4)
	spec.Network.Topology = platform.TopologyBackbone
	spec.Network.BackboneBandwidth = 1e9
	mk := func(id int) *job.Job {
		return &job.Job{
			ID: job.ID(id), Type: job.Rigid, NumNodes: 2,
			App: &job.Application{Phases: []job.Phase{{
				Tasks: []job.Task{{Kind: job.TaskComm, Model: job.MustExprModel("1G"), Pattern: job.PatternAllToAll}},
			}}},
		}
	}
	rec, _ := runSim(t, spec, []*job.Job{mk(0), mk(1)}, &sched.FCFS{}, Options{})
	wantClose(t, "backbone-contended alltoall", record(rec, 0).Runtime(), 2)
}

func TestNetworkLatency(t *testing.T) {
	spec := testPlatform(2)
	spec.Network.Latency = 0.25
	j := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 2,
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{Kind: job.TaskComm, Model: job.MustExprModel("1G"), Pattern: job.PatternRing}},
		}}},
	}
	rec, _ := runSim(t, spec, []*job.Job{j}, &sched.FCFS{}, Options{})
	wantClose(t, "latency + transfer", record(rec, 0).Runtime(), 1.25)
}

func TestTaskTracing(t *testing.T) {
	j := &job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 2,
		App: &job.Application{Phases: []job.Phase{{
			Iterations: 3,
			Tasks: []job.Task{
				{Kind: job.TaskCompute, Model: job.MustExprModel("2e9/num_nodes")},
				{Kind: job.TaskComm, Model: job.MustExprModel("1G"), Pattern: job.PatternRing},
			},
		}}},
	}
	var log []TraceEvent
	runSim(t, testPlatform(2), []*job.Job{j}, &sched.FCFS{},
		Options{Trace: collect(&log), TraceTasks: true})
	starts, ends := 0, 0
	for _, ev := range log {
		switch ev.Kind {
		case EvTaskStart:
			starts++
		case EvTaskEnd:
			ends++
			if !strings.Contains(ev.Detail(), "dur=") {
				t.Errorf("task-end without duration: %s", ev.Detail())
			}
		}
	}
	// 3 iterations x 2 tasks.
	if starts != 6 || ends != 6 {
		t.Errorf("task events %d/%d, want 6/6", starts, ends)
	}
	// Without TraceTasks the log has none.
	var log2 []TraceEvent
	runSim(t, testPlatform(2), []*job.Job{&job.Job{
		ID: 0, Type: job.Rigid, NumNodes: 1,
		App: j.App,
	}}, &sched.FCFS{}, Options{Trace: collect(&log2)})
	for _, ev := range log2 {
		if ev.Kind == EvTaskStart || ev.Kind == EvTaskEnd {
			t.Fatal("task events leaked without TraceTasks")
		}
	}
}

func TestSharedBurstBufferContention(t *testing.T) {
	// Network-attached burst buffer (4 GB/s) shared by two 1-node jobs
	// writing 4 GB each over 4 GB/s links: the BB is the contended
	// resource, 2 GB/s per job -> 2 s. A third configuration with slow
	// links (1 GB/s) is link-bound instead: 4 s.
	mk := func(id int) *job.Job {
		return &job.Job{
			ID: job.ID(id), Type: job.Rigid, NumNodes: 1,
			App: &job.Application{Phases: []job.Phase{{
				Tasks: []job.Task{{Kind: job.TaskWrite, Model: job.MustExprModel("4G"), Target: job.TargetBB}},
			}}},
		}
	}
	spec := platform.Homogeneous("c", 2, speed, 4e9, 4e9, 4e9)
	spec.BurstBuffer = &platform.BurstBufferSpec{Kind: platform.BBShared, ReadBandwidth: 4e9, WriteBandwidth: 4e9}
	rec, _ := runSim(t, spec, []*job.Job{mk(0), mk(1)}, &sched.FCFS{}, Options{})
	wantClose(t, "bb-contended write", record(rec, 0).Runtime(), 2)

	slow := platform.Homogeneous("c", 2, speed, 1e9, 4e9, 4e9)
	slow.BurstBuffer = &platform.BurstBufferSpec{Kind: platform.BBShared, ReadBandwidth: 4e9, WriteBandwidth: 4e9}
	rec2, _ := runSim(t, slow, []*job.Job{mk(0), mk(1)}, &sched.FCFS{}, Options{})
	wantClose(t, "link-bound shared bb", record(rec2, 0).Runtime(), 4)
}

// TestRunLabelFormattedOnce: a job's record and every one of its Gantt
// segments carry Job.Label, and for an unnamed job they share the one
// string the engine formats at submission, its allocator key. The jobs
// reconfigure, so some have several segments.
func TestRunLabelFormattedOnce(t *testing.T) {
	mk := func(id int, name string) *job.Job {
		return &job.Job{
			ID: job.ID(id), Name: name, Type: job.Malleable, NumNodesMin: 1, NumNodesMax: 4,
			App: &job.Application{Phases: []job.Phase{{
				Iterations: 6, SchedulingPoint: true,
				Tasks: []job.Task{{Kind: job.TaskCompute, Model: job.MustExprModel("4e9/num_nodes")}},
			}}},
		}
	}
	jobs := []*job.Job{mk(0, ""), mk(1, "named"), mk(2, ""), mk(13, "")}
	for i, j := range jobs {
		j.SubmitTime = float64(i) * 3
	}
	rec, _ := runSim(t, testPlatform(4), jobs, &sched.Adaptive{}, Options{})
	names := map[job.ID]string{}
	for _, j := range jobs {
		names[j.ID] = j.Label()
	}
	segments := map[job.ID]bool{}
	for _, r := range rec.Records() {
		if r.Name != names[r.ID] {
			t.Errorf("job %d: record name %q, want %q", r.ID, r.Name, names[r.ID])
		}
		for _, g := range rec.Gantt() {
			if g.Job != r.ID {
				continue
			}
			segments[g.Job] = true
			if g.Name != r.Name || unsafe.StringData(g.Name) != unsafe.StringData(r.Name) {
				t.Errorf("job %d: Gantt segment name %q is not the record's string %q", r.ID, g.Name, r.Name)
			}
		}
	}
	if len(segments) != len(jobs) || len(rec.Gantt()) <= len(jobs) {
		t.Errorf("%d Gantt segments over %d jobs, want every job and a reconfiguration", len(rec.Gantt()), len(segments))
	}
}

// TestUntracedRunFormatsNothing bounds heap allocations per job on the
// default path — no Options.Trace, no tracer — for the rigid periodic
// shape cmd/bench's rigid_xl runs, at a sustainable load (about 150 of the
// 4000 jobs live at once). Trace call sites build typed records that emit
// drops when no consumer is attached, so submit, start and finish cost no
// fmt.Sprintf, and task models evaluate in the engine's one environment.
// The run makes 4.07 mallocs and 624 bytes per job, engine construction
// included (4.14 and 685 under -race); the bounds are 1.2 times that.
// Keeping every finished run's slot, allocating each job record on its
// own, growing the records, Gantt and busy timeline by append and building
// a completion closure per start made 6.10 and 995; formatting the trace
// details unconditionally adds about five mallocs, building an environment
// map per task start six, and validating each job into a fresh
// allowed-name map and free-variable set while formatting its label for
// the record and every Gantt segment added eight. The run table must
// carve no more slots than the peak of live runs plus one chunk.
func TestUntracedRunFormatsNothing(t *testing.T) {
	jobs := make([]*job.Job, 4000)
	for i := range jobs {
		jobs[i] = computeJob(i, 1+i%4, float64(10+i%60)*speed)
		jobs[i].SubmitTime = float64(i) / 4
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, e := runSim(t, testPlatform(512), jobs, &sched.FirstFit{}, Options{InvocationInterval: 30, DisableEventDriven: true})
	runtime.ReadMemStats(&after)
	perJob := float64(after.Mallocs-before.Mallocs) / float64(len(jobs))
	bytesPerJob := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(jobs))
	t.Logf("%.2f mallocs and %.0f bytes per job; %d run slots carved for a peak of %d live runs", perJob, bytesPerJob, e.runs.slots, e.runs.peak)
	if perJob > 4.9 {
		t.Errorf("%.2f mallocs per job with tracing off, want at most 4.9: is a trace detail or a job label formatted on the untraced path, does validation allocate again, or is a record or closure allocated per job?", perJob)
	}
	if bytesPerJob > 750 {
		t.Errorf("%.0f bytes per job, want at most 750: does a finished run keep its slot, or does the recorder grow its records, Gantt or busy timeline by append again?", bytesPerJob)
	}
	if e.runs.slots > e.runs.peak+runChunk {
		t.Errorf("%d run slots carved for a peak of %d live runs, want at most %d more: are finished runs released?", e.runs.slots, e.runs.peak, runChunk)
	}
}

// TestTracedRunFormatsNothing pins the event log's cost: a rigid run with
// a counting Options.Trace consumer and no tracer hands each typed record
// to the consumer, formats nothing and keeps nothing, so it allocates what
// the untraced run does plus the consumer closure and its counter. The
// bound is 4 mallocs over the untraced run for the whole run, about 3,000
// records; keeping the log grew it by append (13 reallocations), and a
// detail string formatted per event adds thousands.
func TestTracedRunFormatsNothing(t *testing.T) {
	jobs := make([]*job.Job, 1000)
	for i := range jobs {
		jobs[i] = computeJob(i, 1+i%4, float64(10+i%60)*speed)
		jobs[i].SubmitTime = float64(i) / 4
	}
	mallocs := func(traced bool) (allocs uint64, events int) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		opts := Options{InvocationInterval: 30, DisableEventDriven: true}
		if traced {
			opts.Trace = func(TraceEvent) { events++ }
		}
		runSim(t, testPlatform(512), jobs, &sched.FirstFit{}, opts)
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, events
	}
	untraced, _ := mallocs(false)
	traced, events := mallocs(true)
	t.Logf("%d events consumed; %d mallocs traced, %d untraced", events, traced, untraced)
	if events < 3*len(jobs) {
		t.Fatalf("%d events consumed for %d jobs, want submit, start and finish of each", events, len(jobs))
	}
	if traced > untraced+4 {
		t.Errorf("traced run made %d mallocs, the untraced one %d: want at most 4 more (the consumer); is a record kept, or a detail formatted when an event is emitted?", traced, untraced)
	}
}

// TestAdaptiveFailuresMallocs bounds heap allocations per job for an
// adaptive run under exponential node failures with shrink recovery, the
// shape of cmd/bench's failures_shrink: scheduler invocations, shrinks
// through failures and requeues must not allocate per job view or per
// down node.
func TestAdaptiveFailuresMallocs(t *testing.T) {
	w, err := job.Generate(job.Config{
		Seed: 1, Count: 600,
		Arrival:      job.Arrival{Kind: job.ArrivalPoisson, Rate: 0.05},
		Nodes:        [2]int{1, 16},
		MachineNodes: 128,
		NodeSpeed:    speed,
		TypeShares:   map[job.Type]float64{job.Rigid: 1, job.Malleable: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := testPlatform(128)
	spec.Failures = &failure.Spec{
		Model: failure.ModelExponential, Seed: 1, MTBF: 20000, MTTR: 600, Recovery: failure.RecoverShrink,
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec, _ := runSim(t, spec, w.Jobs, &sched.Adaptive{}, Options{})
	runtime.ReadMemStats(&after)
	if s := rec.Summary(); s.NodeFailures == 0 || s.Reconfigs == 0 {
		t.Fatalf("run saw %d node failures and %d reconfigurations, want both", s.NodeFailures, s.Reconfigs)
	}
	perJob := float64(after.Mallocs-before.Mallocs) / float64(len(w.Jobs))
	t.Logf("%.1f mallocs per job", perJob)
	// 62.0 here (62.1 under -race); the bound is 1.2 times that. A
	// completion closure per start and a record allocation per job made
	// 64.1. Validating each job three times, into
	// a fresh allowed-name map and free-variable set, and formatting its
	// label for every record and Gantt segment made 109.3; a release heap
	// per shadow time, a completion closure per task and an environment
	// map per reconfiguration, 183.3; rebuilding a view per listed job per
	// invocation and an environment map per task start, 418.2.
	if perJob > 74 {
		t.Errorf("%.1f mallocs per job, want at most 74: does validation, an invocation, a task start or a reconfiguration allocate again?", perJob)
	}
}
