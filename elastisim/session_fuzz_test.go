package elastisim

import (
	"testing"

	"repro/internal/job"
)

// FuzzNewSession pins the error-never-panic contract of session
// construction: whatever malformed shape the config takes — zero or
// negative node counts, min > max, cyclic dependencies, absurd failure
// specs, periodic-only scheduling without a period — NewSession must
// return an error (or, for configs that happen to be valid, a session),
// and must not panic. The fuzzer mutates the numeric knobs; the seed
// corpus covers each documented failure class.
func FuzzNewSession(f *testing.F) {
	f.Add(0, 4, 1, 4, 100e9, 0.0, 0.0, false, 0.0, false)       // zero machine nodes
	f.Add(16, -3, 1, 4, 100e9, 0.0, 0.0, false, 0.0, false)     // negative job nodes
	f.Add(16, 4, 8, 2, 100e9, 0.0, 0.0, false, 0.0, false)      // min > max
	f.Add(16, 4, 1, 4, -1.0, 0.0, 0.0, false, 0.0, false)       // negative node speed
	f.Add(16, 4, 1, 4, 100e9, 0.0, 0.0, true, 0.0, false)       // cyclic dependencies
	f.Add(16, 4, 1, 4, 100e9, -5.0, 10.0, false, 0.0, false)    // negative MTBF
	f.Add(16, 4, 1, 4, 100e9, 20000.0, -1.0, false, 0.0, false) // negative MTTR
	f.Add(16, 64, 32, 64, 100e9, 0.0, 0.0, false, 0.0, false)   // job larger than machine
	f.Add(-2, 4, 1, 4, 100e9, 1000.0, 10.0, false, 0.0, false)  // negative machine
	f.Add(16, 4, 1, 4, 100e9, 0.0, 0.0, false, 0.0, true)       // periodic-only without an interval
	f.Add(16, 4, 1, 4, 100e9, 0.0, 0.0, false, 30.0, true)      // periodic-only, valid

	f.Fuzz(func(t *testing.T, machineNodes, jobNodes, minNodes, maxNodes int, nodeSpeed, mtbf, mttr float64, cyclic bool, interval float64, periodicOnly bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("NewSession panicked: %v", r)
			}
		}()

		plat := HomogeneousPlatform("fuzz", machineNodes, nodeSpeed, 10e9, 40e9, 40e9)
		app := &Application{Phases: []Phase{{Tasks: []Task{{
			Kind: job.TaskCompute, Model: job.MustExprModel("1e11"),
		}}}}}
		j0 := &Job{ID: 0, Type: Rigid, NumNodes: jobNodes, App: app}
		j1 := &Job{ID: 1, Type: Malleable, NumNodesMin: minNodes, NumNodesMax: maxNodes, App: app}
		j2 := &Job{ID: 2, Type: Rigid, NumNodes: 1, App: app, Dependencies: []job.ID{1}}
		if cyclic {
			j1.Dependencies = []job.ID{2}
		}
		cfg := Config{
			Platform:  plat,
			Workload:  &Workload{Jobs: []*Job{j0, j1, j2}},
			Algorithm: NewAdaptive(),
			Options:   Options{InvocationInterval: interval, DisableEventDriven: periodicOnly},
		}
		if mtbf != 0 || mttr != 0 {
			cfg.Failures = &FailureSpec{Model: FailureExponential, Seed: 1, MTBF: Quantity(mtbf), MTTR: Quantity(mttr)}
		}

		s, err := NewSession(cfg)
		if (s == nil) == (err == nil) {
			t.Fatalf("NewSession returned session=%v err=%v; want exactly one", s != nil, err)
		}
		if periodicOnly && !(interval > 0) && err == nil {
			t.Fatalf("NewSession accepted periodic-only scheduling with interval %v: the scheduler would never run", interval)
		}
	})
}
