package sched

import (
	"testing"

	"repro/internal/job"
)

var sizerRef = job.PlatformRef{NodeSpeed: 1e9, LinkBW: 1e9, PFSReadBW: 2e9, PFSWriteBW: 2e9}

func amdahlMoldable(id int, serial float64, minN, maxN int) *JobView {
	return newView(&job.Job{
		ID: job.ID(id), Type: job.Moldable,
		NumNodesMin: minN, NumNodesMax: maxN, NumNodes: minN,
		Args: map[string]float64{"flops": 1e10, "serial": serial},
		App: &job.Application{Phases: []job.Phase{{
			Tasks: []job.Task{{
				Kind:  job.TaskCompute,
				Model: job.MustExprModel("flops*(serial + (1-serial)/num_nodes)"),
			}},
		}}},
	})
}

func TestEfficiencySizerPerfectScalingTakesMax(t *testing.T) {
	sizer := EfficiencySizer(sizerRef, 0.9)
	v := amdahlMoldable(0, 0, 1, 16) // no serial fraction: perfect scaling
	if got := sizer(v, 32); got != 16 {
		t.Errorf("perfect scaler sized at %d, want 16", got)
	}
}

func TestEfficiencySizerSerialFractionLimits(t *testing.T) {
	sizer := EfficiencySizer(sizerRef, 0.8)
	v := amdahlMoldable(0, 0.2, 1, 16)
	got := sizer(v, 32)
	// eff(n) = T(1)/(T(n)*n); T(n) = 10*(0.2+0.8/n).
	// eff(2)=0.833, eff(3)=0.714 -> largest n with eff >= 0.8 is 2.
	if got != 2 {
		t.Errorf("20%% serial job sized at %d, want 2", got)
	}
}

func TestEfficiencySizerRespectsFree(t *testing.T) {
	sizer := EfficiencySizer(sizerRef, 0.5)
	v := amdahlMoldable(0, 0, 4, 16)
	if got := sizer(v, 6); got != 6 {
		t.Errorf("sized %d with 6 free, want 6", got)
	}
	if got := sizer(v, 3); got != 0 {
		t.Errorf("sized %d below minimum, want 0", got)
	}
}

func TestEfficiencySizerRigidUnchanged(t *testing.T) {
	sizer := EfficiencySizer(sizerRef, 0.9)
	v := mkPending(0, 8, 0)
	if got := sizer(v, 16); got != 8 {
		t.Errorf("rigid job resized to %d", got)
	}
}

func TestAlgorithmsAcceptSizeFn(t *testing.T) {
	// An EASY with an efficiency sizer starts the moldable job at its
	// efficiency-bounded size instead of its request.
	e := &EASY{Size: EfficiencySizer(sizerRef, 0.8)}
	v := amdahlMoldable(0, 0.2, 1, 16)
	inv := &Invocation{FreeNodes: 16, TotalNodes: 16, Pending: []*JobView{v}}
	ds := e.Schedule(inv)
	if len(ds) != 1 || ds[0].NumNodes != 2 {
		t.Errorf("EASY with efficiency sizer: %v, want start with 2 nodes", ds)
	}
}
