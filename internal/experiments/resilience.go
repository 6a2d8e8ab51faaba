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

// e10Workload is the shared resilience workload: fully malleable (so the
// recovery policy is the only knob between the two arms) with the given
// checkpoint-interval expression ("" = no checkpoints).
func e10Workload(seed uint64, count int, ckpt string) (*elastisim.Workload, error) {
	return elastisim.GenerateWorkload(elastisim.WorkloadConfig{
		Name:               "resilience",
		Seed:               seed,
		Count:              count,
		Arrival:            job.Arrival{Kind: job.ArrivalPoisson, Rate: 1.0 / 18},
		Nodes:              [2]int{2, 64},
		MachineNodes:       stdNodes,
		NodeSpeed:          stdNodeSpeed,
		TypeShares:         map[job.Type]float64{job.Malleable: 1},
		CheckpointInterval: ckpt,
	})
}

func e10Run(seed uint64, count int, ckpt string, mtbf float64, rec elastisim.RecoveryPolicy, maxRequeues int) (*elastisim.Result, error) {
	wl, err := e10Workload(seed, count, ckpt)
	if err != nil {
		return nil, err
	}
	cfg := elastisim.Config{
		Platform:  StandardPlatform(stdNodes),
		Workload:  wl,
		Algorithm: elastisim.NewAdaptive(),
	}
	if mtbf > 0 {
		cfg.Failures = &elastisim.FailureSpec{
			Model:       elastisim.FailureWeibull,
			Seed:        seed + e10SeedSalt,
			MTBF:        elastisim.Quantity(mtbf),
			MTTR:        e10MTTR,
			Recovery:    rec,
			MaxRequeues: maxRequeues,
		}
	}
	return elastisim.Run(cfg)
}

// E10Resilience reconstructs the failure-aware comparison: the same fully
// malleable workload under Weibull node failures, recovered either by
// shrinking through the failure (graceful degradation) or by killing and
// requeueing from the last checkpoint. At short MTBF shrink wastes less
// work (only the interrupted iteration) and keeps the machine busier, so
// it wins on badput and makespan; as MTBF grows the arms converge on the
// failure-free schedule. A second sweep varies the checkpoint interval at
// the shortest MTBF: coarser checkpoints mean more work redone per kill.
func E10Resilience(seed uint64, count int) (*Table, map[string]*elastisim.Result, error) {
	t := &Table{
		ID:     "E10",
		Title:  "resilience under node failures: shrink-through-failure vs kill-and-requeue",
		Header: []string{"mtbf_s", "ckpt_s", "recovery", "makespan", "badput_nh", "requeues", "failed", "availability"},
	}
	results := map[string]*elastisim.Result{}
	const stdCkpt = "300"
	policies := []elastisim.RecoveryPolicy{elastisim.RecoverShrink, elastisim.RecoverRequeue}

	addRow := func(mtbfLabel, ckptLabel string, rec elastisim.RecoveryPolicy, res *elastisim.Result) {
		s := res.Summary
		t.AddRow(mtbfLabel, ckptLabel, string(rec),
			f1(s.Makespan), f2(s.BadputNodeSeconds/3600),
			fmt.Sprintf("%d", s.Requeues), fmt.Sprintf("%d", s.FailedNode),
			pct(s.Availability))
	}

	// Both sweeps flatten into one cell list so the worker pool sees all
	// eleven independent runs at once; rows are still emitted in the
	// original order afterwards.
	//
	// MTBF sweep at a fixed checkpoint interval. MTBF 0 disables failures
	// entirely — the MTBF -> infinity limit, where both arms must agree.
	// Resubmission is unbounded here: a terminally failed job would drop
	// its remaining work and bias the makespan comparison.
	type cell struct {
		key, mtbfLabel, ckptLabel string
		ckpt                      string
		mtbf                      float64
		rec                       elastisim.RecoveryPolicy
		maxRequeues               int
	}
	var cells []cell
	for _, mtbf := range []float64{6000, 24000, 96000, 0} {
		label := f1(mtbf)
		if mtbf == 0 {
			label = "inf"
		}
		for _, rec := range policies {
			cells = append(cells, cell{
				key: fmt.Sprintf("mtbf=%s/%s", label, rec), mtbfLabel: label,
				ckptLabel: stdCkpt, ckpt: stdCkpt, mtbf: mtbf, rec: rec, maxRequeues: 1 << 20,
			})
		}
	}
	// Checkpoint-interval sweep at the shortest MTBF under the requeue
	// policy, where checkpoint density directly bounds the badput. The
	// default requeue budget applies: with coarse or missing checkpoints,
	// big jobs restart from too far back, fail again before finishing,
	// and eventually exhaust their resubmissions (the "failed" column) —
	// unbounded they would livelock.
	for _, ckpt := range []string{"60", "1800", ""} {
		label := ckpt
		if ckpt == "" {
			label = "none"
		}
		cells = append(cells, cell{
			key: "ckpt=" + label, mtbfLabel: f1(6000), ckptLabel: label,
			ckpt: ckpt, mtbf: 6000, rec: elastisim.RecoverRequeue, maxRequeues: 0,
		})
	}
	runs, err := runIndexed(0, len(cells), func(i int) (*elastisim.Result, error) {
		c := cells[i]
		return e10Run(seed, count, c.ckpt, c.mtbf, c.rec, c.maxRequeues)
	})
	if err != nil {
		return nil, nil, err
	}
	for i, res := range runs {
		results[cells[i].key] = res
		addRow(cells[i].mtbfLabel, cells[i].ckptLabel, cells[i].rec, res)
	}

	shrink := results["mtbf=6000.0/shrink"].Summary
	requeue := results["mtbf=6000.0/requeue"].Summary
	t.AddNote("MTBF 6000 s: shrink beats requeue on badput (%s vs %s node-hours) and makespan (%s vs %s)",
		f2(shrink.BadputNodeSeconds/3600), f2(requeue.BadputNodeSeconds/3600),
		f1(shrink.Makespan), f1(requeue.Makespan))
	inf0 := results["mtbf=inf/shrink"].Summary
	inf1 := results["mtbf=inf/requeue"].Summary
	t.AddNote("MTBF -> inf: both arms collapse onto the failure-free schedule (makespan %s = %s)",
		f1(inf0.Makespan), f1(inf1.Makespan))
	return t, results, nil
}
