package sched

import (
	"math"
	"testing"

	"repro/internal/job"
)

// newView is NewJobView on the heap.
func newView(j *job.Job) *JobView {
	v := NewJobView(j)
	return &v
}

// syncView re-copies v.Job's scheduling bounds into v after a test edited
// the job, leaving the state fields as they are.
func syncView(v *JobView) *JobView {
	c := NewJobView(v.Job)
	v.Type, v.MinNodes, v.MaxNodes, v.ReqNodes, v.WallTime = c.Type, c.MinNodes, c.MaxNodes, c.ReqNodes, c.WallTime
	return v
}

// mkPending builds a pending view for a rigid job of n nodes.
func mkPending(id int, n int, walltime float64) *JobView {
	return newView(&job.Job{
		ID: job.ID(id), Type: job.Rigid, NumNodes: n, WallTimeLimit: walltime,
		App: &job.Application{Phases: []job.Phase{{Tasks: []job.Task{{Kind: job.TaskDelay, Model: job.ConstModel(1)}}}}},
	})
}

func mkRunning(id int, n int, start, end float64) *JobView {
	v := mkPending(id, n, 0)
	v.State = StateRunning
	v.Nodes = n
	v.StartTime = start
	v.ExpectedEnd = end
	return v
}

func mkMalleable(id, cur, minN, maxN int, atSP bool) *JobView {
	v := newView(&job.Job{
		ID: job.ID(id), Type: job.Malleable, NumNodesMin: minN, NumNodesMax: maxN, NumNodes: cur,
	})
	v.State = StateRunning
	v.Nodes = cur
	v.AtSchedulingPoint = atSP
	v.ExpectedEnd = math.Inf(1)
	return v
}

func decisionsByKind(ds []Decision, k DecisionKind) []Decision {
	var out []Decision
	for _, d := range ds {
		if d.Kind == k {
			out = append(out, d)
		}
	}
	return out
}

func TestStartSize(t *testing.T) {
	rigid := mkPending(0, 8, 0)
	mold := newView(&job.Job{Type: job.Moldable, NumNodes: 8, NumNodesMin: 2, NumNodesMax: 16})
	noPref := newView(&job.Job{Type: job.Malleable, NumNodesMin: 3, NumNodesMax: 9})
	for _, c := range []struct {
		what   string
		size   SizeFunc
		policy SizePolicy
		v      *JobView
		free   int
		want   int
	}{
		{"rigid fits", RequestedSize, SizeRequested, rigid, 8, 8},
		{"rigid overflows", RequestedSize, SizeRequested, rigid, 7, 0},
		{"rigid at max", MaxSize, SizeMax, rigid, 100, 8},
		{"rigid at min", MinSize, SizeMin, rigid, 100, 8},
		{"moldable requested", RequestedSize, SizeRequested, mold, 100, 8},
		{"moldable max", MaxSize, SizeMax, mold, 100, 16},
		{"moldable min", MinSize, SizeMin, mold, 100, 2},
		{"moldable clamped to free", RequestedSize, SizeRequested, mold, 5, 5},
		{"moldable max clamped to free", MaxSize, SizeMax, mold, 5, 5},
		{"moldable below min", RequestedSize, SizeRequested, mold, 1, 0},
		{"moldable min below min", MinSize, SizeMin, mold, 1, 0},
		{"no preference defaults to min", RequestedSize, SizeRequested, noPref, 100, 3},
	} {
		if got := c.size(c.v, c.free); got != c.want {
			t.Errorf("%s = %d, want %d", c.what, got, c.want)
		}
		if ref := refStartSize(c.v.Job, c.free, c.policy); ref != c.want {
			t.Errorf("%s: reference %d, want %d", c.what, ref, c.want)
		}
	}
}

func TestFCFSBasic(t *testing.T) {
	f := &FCFS{}
	inv := &Invocation{
		Now:        0,
		FreeNodes:  10,
		TotalNodes: 10,
		Pending:    []*JobView{mkPending(0, 4, 0), mkPending(1, 4, 0), mkPending(2, 4, 0)},
	}
	ds := f.Schedule(inv)
	// 4 + 4 fit, third blocks.
	if len(ds) != 2 {
		t.Fatalf("decisions %v", ds)
	}
	if ds[0].Job != 0 || ds[1].Job != 1 {
		t.Errorf("wrong jobs started: %v", ds)
	}
}

func TestFCFSHeadBlocks(t *testing.T) {
	f := &FCFS{}
	inv := &Invocation{
		FreeNodes:  10,
		TotalNodes: 16,
		Pending:    []*JobView{mkPending(0, 12, 0), mkPending(1, 2, 0)},
	}
	ds := f.Schedule(inv)
	if len(ds) != 0 {
		t.Errorf("FCFS must not skip the blocked head: %v", ds)
	}
}

func TestSJFOrdersByWalltime(t *testing.T) {
	s := &SJF{}
	inv := &Invocation{
		FreeNodes:  4,
		TotalNodes: 16,
		Pending: []*JobView{
			mkPending(0, 4, 1000),
			mkPending(1, 4, 10),
			mkPending(2, 4, 100),
		},
	}
	ds := s.Schedule(inv)
	if len(ds) != 1 || ds[0].Job != 1 {
		t.Errorf("SJF should start the shortest job: %v", ds)
	}
}

func TestEASYBackfill(t *testing.T) {
	e := &EASY{}
	// 10-node machine. Job A runs on 6 until t=100. Head job needs 8
	// (blocked until A ends). A 2-node job ending before t=100 backfills;
	// a long 4-node job would delay the reservation only if it used more
	// than the extra nodes: after A ends, 10-8=2 extra remain, so a
	// 2-node long job also backfills, but a 4-node long one must not.
	inv := &Invocation{
		Now:        0,
		FreeNodes:  4,
		TotalNodes: 10,
		Running:    []*JobView{mkRunning(0, 6, 0, 100)},
		Pending: []*JobView{
			mkPending(1, 8, 500),  // head, blocked
			mkPending(2, 2, 50),   // fits before shadow
			mkPending(3, 4, 1000), // would delay head
			mkPending(4, 2, 1000), // fits within extra
		},
	}
	ds := e.Schedule(inv)
	starts := decisionsByKind(ds, DecisionStart)
	got := map[job.ID]bool{}
	for _, d := range starts {
		got[d.Job] = true
	}
	if got[1] {
		t.Error("blocked head started")
	}
	if !got[2] {
		t.Error("short job not backfilled")
	}
	if got[3] {
		t.Error("long wide job backfilled, delays reservation")
	}
	if !got[4] {
		t.Error("narrow long job not backfilled into extra nodes")
	}
}

func TestEASYGreedyPrefix(t *testing.T) {
	e := &EASY{}
	inv := &Invocation{
		FreeNodes:  8,
		TotalNodes: 8,
		Pending:    []*JobView{mkPending(0, 4, 10), mkPending(1, 4, 10)},
	}
	ds := e.Schedule(inv)
	if len(ds) != 2 {
		t.Errorf("both jobs should start: %v", ds)
	}
}

func TestConservativeDoesNotDelayReservations(t *testing.T) {
	c := &Conservative{}
	// Machine 10. Running: 6 nodes until t=100. Queue: head 8 nodes
	// (reserved at 100, runtime 100), then a long 4-node job. Starting the
	// 4-node job now (runtime 1000) would overlap [100, 200) when only
	// 10-8 = 2 nodes are spare: must not start. A short 4-node job (ends
	// at 50) must start.
	inv := &Invocation{
		Now:        0,
		FreeNodes:  4,
		TotalNodes: 10,
		Running:    []*JobView{mkRunning(0, 6, 0, 100)},
		Pending: []*JobView{
			mkPending(1, 8, 100),
			mkPending(2, 4, 1000),
			mkPending(3, 4, 50),
		},
	}
	ds := c.Schedule(inv)
	got := map[job.ID]bool{}
	for _, d := range ds {
		got[d.Job] = true
	}
	if got[1] {
		t.Error("head started despite insufficient nodes")
	}
	if got[2] {
		t.Error("long job started, delaying the head reservation")
	}
	if !got[3] {
		t.Error("short job should start (finishes before the reservation)")
	}
}

func TestConservativeLaterJobsGetReservations(t *testing.T) {
	c := &Conservative{}
	// Two successive 8-node jobs on an 8-node machine: the second gets a
	// reservation after the first's reservation, and a third 8-node short
	// job cannot jump either.
	inv := &Invocation{
		Now:        0,
		FreeNodes:  0,
		TotalNodes: 8,
		Running:    []*JobView{mkRunning(0, 8, 0, 10)},
		Pending: []*JobView{
			mkPending(1, 8, 10),
			mkPending(2, 8, 10),
		},
	}
	ds := c.Schedule(inv)
	if len(ds) != 0 {
		t.Errorf("nothing can start now: %v", ds)
	}
}

func TestAdaptiveExpandsIntoFreeNodes(t *testing.T) {
	a := &Adaptive{}
	m := mkMalleable(0, 4, 2, 16, true)
	inv := &Invocation{
		Now:        0,
		FreeNodes:  6,
		TotalNodes: 10,
		Running:    []*JobView{m},
	}
	ds := a.Schedule(inv)
	resizes := decisionsByKind(ds, DecisionResize)
	if len(resizes) != 1 {
		t.Fatalf("want one resize, got %v", ds)
	}
	if resizes[0].NumNodes != 10 {
		t.Errorf("expand to %d, want 10", resizes[0].NumNodes)
	}
}

func TestAdaptiveExpandRespectsMax(t *testing.T) {
	a := &Adaptive{}
	m := mkMalleable(0, 4, 2, 6, true)
	inv := &Invocation{
		FreeNodes:  6,
		TotalNodes: 10,
		Running:    []*JobView{m},
	}
	ds := a.Schedule(inv)
	resizes := decisionsByKind(ds, DecisionResize)
	if len(resizes) != 1 || resizes[0].NumNodes != 6 {
		t.Errorf("expand should stop at max: %v", ds)
	}
}

func TestAdaptiveEquipartition(t *testing.T) {
	a := &Adaptive{}
	m1 := mkMalleable(0, 2, 1, 16, true)
	m2 := mkMalleable(1, 2, 1, 16, true)
	inv := &Invocation{
		FreeNodes:  8,
		TotalNodes: 12,
		Running:    []*JobView{m1, m2},
	}
	ds := a.Schedule(inv)
	resizes := decisionsByKind(ds, DecisionResize)
	if len(resizes) != 2 {
		t.Fatalf("want two resizes: %v", ds)
	}
	for _, d := range resizes {
		if d.NumNodes != 6 {
			t.Errorf("equipartition gave %v, want 6 each", resizes)
		}
	}
}

func TestAdaptiveShrinksToAdmit(t *testing.T) {
	a := &Adaptive{}
	m := mkMalleable(0, 8, 2, 16, true)
	pend := mkPending(1, 6, 100)
	inv := &Invocation{
		FreeNodes:  0,
		TotalNodes: 8,
		Running:    []*JobView{m},
		Pending:    []*JobView{pend},
	}
	ds := a.Schedule(inv)
	if len(ds) < 2 {
		t.Fatalf("want shrink+start, got %v", ds)
	}
	if ds[0].Kind != DecisionResize || ds[0].NumNodes != 2 {
		t.Errorf("first decision should shrink to 2: %v", ds)
	}
	if ds[1].Kind != DecisionStart || ds[1].Job != 1 || ds[1].NumNodes != 6 {
		t.Errorf("second decision should start job 1 on 6: %v", ds)
	}
}

func TestAdaptiveShrinkOnlyAsNeeded(t *testing.T) {
	a := &Adaptive{}
	m := mkMalleable(0, 8, 2, 16, true)
	pend := mkPending(1, 2, 100)
	inv := &Invocation{
		FreeNodes:  0,
		TotalNodes: 8,
		Running:    []*JobView{m},
		Pending:    []*JobView{pend},
	}
	ds := a.Schedule(inv)
	if ds[0].Kind != DecisionResize || ds[0].NumNodes != 6 {
		t.Errorf("should shrink only to 6: %v", ds)
	}
}

func TestAdaptiveIgnoresJobsNotAtSchedulingPoint(t *testing.T) {
	a := &Adaptive{}
	m := mkMalleable(0, 4, 2, 16, false)
	inv := &Invocation{
		FreeNodes:  6,
		TotalNodes: 10,
		Running:    []*JobView{m},
	}
	if ds := a.Schedule(inv); len(ds) != 0 {
		t.Errorf("resized a job not at a scheduling point: %v", ds)
	}
}

func TestAdaptiveEvolvingGrants(t *testing.T) {
	a := &Adaptive{}
	ev := mkMalleable(0, 4, 2, 16, false)
	ev.Job.Type = job.Evolving
	syncView(ev)
	ev.EvolvingRequest = 8
	inv := &Invocation{
		FreeNodes:  10,
		TotalNodes: 16,
		Running:    []*JobView{ev},
	}
	ds := a.Schedule(inv)
	grants := decisionsByKind(ds, DecisionGrant)
	if len(grants) != 1 || grants[0].NumNodes != 8 {
		t.Errorf("grow grant wrong: %v", ds)
	}
	// Shrink request always granted.
	ev.EvolvingRequest = 2
	ds = a.Schedule(inv)
	grants = decisionsByKind(ds, DecisionGrant)
	if len(grants) != 1 || grants[0].NumNodes != 2 {
		t.Errorf("shrink grant wrong: %v", ds)
	}
}

func TestAdaptiveEvolvingGrowClampedByFree(t *testing.T) {
	a := &Adaptive{}
	ev := mkMalleable(0, 4, 2, 16, false)
	ev.Job.Type = job.Evolving
	syncView(ev)
	ev.EvolvingRequest = 12
	inv := &Invocation{
		FreeNodes:  3,
		TotalNodes: 16,
		Running:    []*JobView{ev},
	}
	ds := a.Schedule(inv)
	grants := decisionsByKind(ds, DecisionGrant)
	if len(grants) != 1 || grants[0].NumNodes != 7 {
		t.Errorf("partial grant wrong: %v", ds)
	}
	// No free nodes at all: denied.
	inv.FreeNodes = 0
	ds = a.Schedule(inv)
	if denies := decisionsByKind(ds, DecisionDeny); len(denies) != 1 {
		t.Errorf("expected deny: %v", ds)
	}
}

func TestReasonString(t *testing.T) {
	r := ReasonSubmit | ReasonPeriodic
	s := r.String()
	if s != "submit+periodic" {
		t.Errorf("Reason string %q", s)
	}
	if Reason(0).String() != "none" {
		t.Errorf("zero reason %q", Reason(0).String())
	}
}

func TestDecisionString(t *testing.T) {
	d := Start(3, 8)
	if d.String() != "start(job3, 8)" {
		t.Errorf("decision string %q", d.String())
	}
}
