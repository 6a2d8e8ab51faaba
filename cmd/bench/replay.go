package main

import (
	"fmt"
	"time"

	"repro/elastisim"
	"repro/internal/des"
	"repro/internal/distwork"
	"repro/internal/expr"
	"repro/internal/fluid"
	"repro/internal/platform"
	"repro/internal/telemetry"
)

// Replays time one layer alone, through its public API, at the sizes a
// workload's own counts give. Multiplied back by those counts they
// estimate the layer's share of a run; the estimate leaves out what the
// layer costs its neighbours in cache misses, so every *_share_est is
// labelled an estimate. replayCap bounds the operations of one replay.
const replayCap = 2_000_000

// replayDES fires events on a fresh kernel holding the workload's peak
// backlog, cancelling and rescheduling at the workload's cancelled/fired
// ratio. It returns host ns per fired event, cancellations included.
func replayDES(ks telemetry.KernelStats) float64 {
	if ks.Fired == 0 {
		return 0
	}
	k := des.NewKernel()
	rng := splitmix(1)
	delay := func() des.Time { return des.Time(1 + 1000*rng.f64()) }
	var refill des.Handler
	refill = func() { k.ScheduleTransientAfter(delay(), 0, refill) }
	for i := 0; i < max(ks.PeakQueue, 1); i++ {
		k.ScheduleTransientAfter(delay(), 0, refill)
	}
	perFire := float64(ks.Cancelled) / float64(ks.Fired)
	fires := int(min(ks.Fired, uint64(replayCap/(1+perFire))))
	// One cancellable event is kept pending and rescheduled, the way the
	// fluid solver moves a completion event when rates change.
	far := des.Time(1e9)
	pending := k.ScheduleAfter(far, 0, func() {})
	owed := 0.0
	t0 := time.Now()
	for i := 0; i < fires; i++ {
		k.Step()
		for owed += perFire; owed >= 1; owed-- {
			k.Cancel(pending)
			k.Release(pending)
			pending = k.ScheduleAfter(far, 0, func() {})
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(fires)
}

// replayFluid churns activities through one shared resource whose
// component holds size activities: start one, then alternately let it
// complete or cancel it. It returns host ns per re-solved activity.
func replayFluid(size int, solved uint64) float64 {
	if solved == 0 {
		return 0
	}
	k := des.NewKernel()
	p := fluid.NewPool(k)
	shared := p.NewResource("shared", float64(size))
	for i := 0; i < size-1; i++ {
		a := fluid.NewActivity("bg", 1e18, nil)
		a.AddUsage(shared, 1)
		p.Start(a)
	}
	budget := min(solved, replayCap)
	t0 := time.Now()
	for i := 0; p.SolvedActivities() < budget; i++ {
		a := fluid.NewActivity("churn", 1, nil)
		a.AddUsage(shared, 1)
		p.Start(a)
		if i%2 == 0 {
			p.Cancel(a)
		} else {
			for a.Active() && k.Step() {
			}
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(p.SolvedActivities())
}

// replayPlatform allocates and releases width-node jobs on an allocator
// kept about half full. It returns host ns per Allocate+Release pair.
func replayPlatform(nodes int, allocs uint64, width int) (float64, error) {
	if allocs == 0 || width < 1 {
		return 0, nil
	}
	a := platform.NewAllocator(nodes)
	held := max(nodes/(2*width), 1)
	owners := make([]string, held)
	ids := make([][]platform.NodeID, held)
	for i := range owners {
		owners[i] = fmt.Sprintf("job%d", i)
	}
	n := int(min(allocs, replayCap))
	t0 := time.Now()
	for i := 0; i < n; i++ {
		slot := i % held
		if ids[slot] != nil {
			if err := a.Release(owners[slot], ids[slot]); err != nil {
				return 0, err
			}
		}
		got, err := a.Allocate(owners[slot], width)
		if err != nil {
			return 0, err
		}
		ids[slot] = got
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

// anyVar answers every variable the engine would supply at run time.
type anyVar struct{}

func (anyVar) Lookup(string) (float64, bool) { return 4, true }

// exprCosts compiles and evaluates the workload's distinct model
// expressions in one job's environment. It returns mean µs per Compile,
// mean ns per Eval, and the number of distinct expressions.
func exprCosts(wl *elastisim.Workload) (compileUS, evalNS float64, n int, err error) {
	srcs := map[string]expr.Env{}
	for _, j := range wl.Jobs {
		env := expr.ChainEnv{expr.Vars(j.Args), anyVar{}}
		for _, ph := range j.App.Phases {
			for _, t := range ph.Tasks {
				if !t.Model.IsVector() {
					if _, seen := srcs[t.Model.String()]; !seen {
						srcs[t.Model.String()] = env
					}
				}
			}
		}
		if len(srcs) >= 256 {
			break
		}
	}
	if len(srcs) == 0 {
		return 0, 0, 0, nil
	}
	const rounds = 20
	var compile, eval time.Duration
	evals := 0
	for src, env := range srcs {
		var e *expr.Expr
		t0 := time.Now()
		for i := 0; i < rounds; i++ {
			if e, err = expr.Compile(src); err != nil {
				return 0, 0, 0, err
			}
		}
		compile += time.Since(t0)
		t0 = time.Now()
		for i := 0; i < 50*rounds; i++ {
			if _, err = e.Eval(env); err != nil {
				return 0, 0, 0, err
			}
		}
		eval += time.Since(t0)
		evals += 50 * rounds
	}
	return micros(compile) / float64(rounds*len(srcs)), float64(eval.Nanoseconds()) / float64(evals), len(srcs), nil
}

// replayStore claims and finishes n source-fed tasks one at a time: on a
// memory store when path is empty, else on a journal with the benchmark's
// shard and group-commit settings. It returns host µs per task.
func replayStore(n int, path string) (float64, error) {
	opts := distwork.Options[int]{Source: func(seq uint64) (int, bool) { return int(seq), seq <= uint64(n) }}
	s := distwork.New(opts)
	if path != "" {
		opts.Shards, opts.GroupCommit, opts.Evict = journalShards, groupCommit, true
		var err error
		if s, err = distwork.Open(path, opts); err != nil {
			return 0, err
		}
	}
	defer s.Close()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		tasks := s.TryClaimBatch("replay", 1)
		if len(tasks) != 1 {
			return 0, fmt.Errorf("distwork replay: claimed %d tasks at %d of %d", len(tasks), i, n)
		}
		if err := s.FinishBatch("replay", []distwork.FinishItem{{ID: tasks[0].ID, Result: "r"}})[0]; err != nil {
			return 0, err
		}
	}
	return micros(time.Since(t0)) / float64(n), nil
}
