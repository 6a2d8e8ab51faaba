package experiments

import (
	"fmt"

	"repro/elastisim"
	"repro/internal/job"
)

// E10 failure-model constants: repairs take ten minutes on average, and
// the stochastic streams derive from a fixed offset of the workload seed
// so the outage pattern is reproducible per seed but independent of it.
const (
	e10MTTR     = 600.0
	e10SeedSalt = 0x9e3779b9
)

// e10Arm is one run of E10: the checkpoint-interval expression ("" = no
// checkpoints), the MTBF (0 = no failures), the recovery policy and the
// requeue budget, plus the row's labels.
type e10Arm struct {
	mtbfLabel, ckptLabel string
	ckpt                 string
	mtbf                 float64
	rec                  elastisim.RecoveryPolicy
	maxRequeues          int
}

// e10Arms holds both sweeps in row order.
//
// MTBF sweep at a fixed checkpoint interval (rows 0-7, shrink then
// requeue per MTBF). MTBF 0 disables failures entirely — the MTBF ->
// infinity limit, where both arms must agree. Resubmission is unbounded
// here: a terminally failed job would drop its remaining work and bias
// the makespan comparison.
//
// Checkpoint-interval sweep at the shortest MTBF under the requeue policy
// (rows 8-10), where checkpoint density directly bounds the badput. The
// default requeue budget applies: with coarse or missing checkpoints, big
// jobs restart from too far back, fail again before finishing, and
// eventually exhaust their resubmissions (the "failed" column) —
// unbounded they would livelock.
var e10Arms = func() []e10Arm {
	const stdCkpt = "300"
	var arms []e10Arm
	for _, mtbf := range []float64{6000, 24000, 96000, 0} {
		label := f1(mtbf)
		if mtbf == 0 {
			label = "inf"
		}
		for _, rec := range []elastisim.RecoveryPolicy{elastisim.RecoverShrink, elastisim.RecoverRequeue} {
			arms = append(arms, e10Arm{label, stdCkpt, stdCkpt, mtbf, rec, 1 << 20})
		}
	}
	for _, ckpt := range []string{"60", "1800", ""} {
		label := ckpt
		if ckpt == "" {
			label = "none"
		}
		arms = append(arms, e10Arm{f1(6000), label, ckpt, 6000, elastisim.RecoverRequeue, 0})
	}
	return arms
}()

// e10 reconstructs the failure-aware comparison: the same fully malleable
// workload (so the recovery policy is the only knob between the two arms)
// under Weibull node failures, recovered either by shrinking through the
// failure (graceful degradation) or by killing and requeueing from the
// last checkpoint. At short MTBF shrink wastes less work (only the
// interrupted iteration) and keeps the machine busier, so it wins on
// badput and makespan; as MTBF grows the arms converge on the
// failure-free schedule. A second sweep varies the checkpoint interval at
// the shortest MTBF: coarser checkpoints mean more work redone per kill.
var e10 = Experiment{
	ID:     "E10",
	Title:  "resilience under node failures: shrink-through-failure vs kill-and-requeue",
	Header: []string{"mtbf_s", "ckpt_s", "recovery", "makespan", "badput_nh", "requeues", "failed", "availability"},
	Configs: func(seed uint64, jobs int) ([]elastisim.Config, error) {
		return each(len(e10Arms), func(i int) (elastisim.Config, error) {
			a := e10Arms[i]
			wl, err := elastisim.GenerateWorkload(elastisim.WorkloadConfig{
				Name:               "resilience",
				Seed:               seed,
				Count:              jobs,
				Arrival:            job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 18},
				Nodes:              [2]int{2, 64},
				MachineNodes:       stdNodes,
				NodeSpeed:          stdNodeSpeed,
				TypeShares:         map[job.Type]float64{job.Malleable: 1},
				CheckpointInterval: a.ckpt,
			})
			cfg := elastisim.Config{
				Platform:  StandardPlatform(stdNodes),
				Workload:  wl,
				Algorithm: elastisim.NewAdaptive(),
			}
			if a.mtbf > 0 {
				cfg.Failures = &elastisim.FailureSpec{
					Model:       elastisim.FailureWeibull,
					Seed:        seed + e10SeedSalt,
					MTBF:        elastisim.Quantity(a.mtbf),
					MTTR:        e10MTTR,
					Recovery:    a.rec,
					MaxRequeues: a.maxRequeues,
				}
			}
			return cfg, err
		})
	},
	Rows: func(t *Table, res []*elastisim.Result) {
		for i, r := range res {
			a, s := e10Arms[i], r.Summary
			t.AddRow(a.mtbfLabel, a.ckptLabel, string(a.rec),
				f1(s.Makespan), f2(s.BadputNodeSeconds/3600),
				fmt.Sprintf("%d", s.Requeues), fmt.Sprintf("%d", s.FailedNode),
				pct(s.Availability))
		}
		shrink, requeue := res[0].Summary, res[1].Summary
		t.AddNote("MTBF 6000 s: shrink beats requeue on badput (%s vs %s node-hours) and makespan (%s vs %s)",
			f2(shrink.BadputNodeSeconds/3600), f2(requeue.BadputNodeSeconds/3600),
			f1(shrink.Makespan), f1(requeue.Makespan))
		inf0, inf1 := res[6].Summary, res[7].Summary
		t.AddNote("MTBF -> inf: both arms collapse onto the failure-free schedule (makespan %s = %s)",
			f1(inf0.Makespan), f1(inf1.Makespan))
	},
}
