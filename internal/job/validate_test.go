package job

import "testing"

// TestValidateAllocs pins validation at zero allocations per job: the
// free variables of an expression are listed once, at compile time, and
// a job checks them with a predicate instead of building a set of allowed
// names. Workload.Validate adds only the ID check's one bitset, whatever
// the job count. The workloads are the shape of a sweep cell (150 jobs of
// mixed types on 128 nodes), plus checkpoint intervals and a parsed file.
func TestValidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	gen := func(count int) *Workload {
		w, err := Generate(Config{
			Seed: 3, Count: count,
			Arrival:      Arrival{Kind: ArrivalPoisson, Rate: 128 / 2304.0},
			Nodes:        [2]int{2, 64},
			MachineNodes: 128,
			NodeSpeed:    1e12,
			TypeShares:   map[Type]float64{Rigid: 1, Moldable: 1, Malleable: 1, Evolving: 1},
			// Every job's checkpoint interval reads one of its arguments.
			CheckpointInterval: "600 + serial * walltime",
		})
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	parsed, err := ParseWorkload([]byte(workloadJSONExample), 16)
	if err != nil {
		t.Fatal(err)
	}
	small, large := gen(150), gen(1500)
	for _, w := range []*Workload{small, parsed} {
		for _, j := range w.Jobs {
			if got := testing.AllocsPerRun(10, func() { _ = j.Validate(128) }); got != 0 {
				t.Fatalf("%s (%s): Job.Validate allocates %v times, want 0", j.Label(), j.Type, got)
			}
		}
	}
	perWorkload := func(w *Workload) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := w.Validate(128); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := perWorkload(small), perWorkload(large); a != b || a > 1 {
		t.Errorf("Workload.Validate allocates %v times for %d jobs and %v for %d, want one allocation for both", a, len(small.Jobs), b, len(large.Jobs))
	}
}
