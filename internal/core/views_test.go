package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/failure"
	"repro/internal/job"
	"repro/internal/sched"
)

// fillView is the rebuild the engine ran for every listed job on every
// invocation before each run kept its view as persistent state. It is
// kept verbatim as the oracle for those views, except for the two fields
// whose only home is now the view: the start time comes from the checker's
// own record of applied start decisions, and the outstanding evolving
// request is read back from the view. What the rebuild then checks of the
// request is that the pending queue never shows one; viewChecker checks
// separately that an answered request is gone. The job's bounds the view
// copies are computed here from the job itself, not through
// sched.NewJobView, so that the constructor is checked too.
func (e *Engine) fillView(v *sched.JobView, jr *jobRun, startTime float64) {
	j := jr.view.Job
	wall := j.WallTimeLimit
	if wall <= 0 {
		wall = math.Inf(1)
	}
	*v = sched.JobView{
		ID:         j.ID,
		Job:        j,
		Type:       j.Type,
		MinNodes:   j.MinNodes(),
		MaxNodes:   j.MaxNodes(),
		ReqNodes:   j.NumNodes,
		WallTime:   wall,
		SubmitTime: j.SubmitTime,
	}
	switch jr.state {
	case statePending:
		v.State = sched.StatePending
	default:
		v.State = sched.StateRunning
		v.Nodes = len(jr.nodes)
		v.StartTime = startTime
		v.AtSchedulingPoint = jr.state == stateAtSchedPoint
		v.EvolvingRequest = jr.view.EvolvingRequest
		if jr.view.Job.WallTimeLimit > 0 {
			v.ExpectedEnd = startTime + jr.view.Job.WallTimeLimit
		} else {
			v.ExpectedEnd = math.Inf(1)
		}
	}
}

// viewChecker wraps an algorithm and, at every invocation, compares what
// the engine hands it with a fresh rebuild from the run lists: the same
// jobs in the same order, each view field-for-field equal to fillView's,
// and DownNodes equal to the recorder's open outages. On traced runs it
// also checks that an evolving request the algorithm validly granted or
// denied no longer shows at the next invocation, unless the job asked
// again in between.
type viewChecker struct {
	e      *Engine
	inner  sched.Algorithm
	label  string
	report func(msg string) // receives each mismatch

	// started holds when each job's latest start decision was issued
	// while it was pending. Only a start decision moves a job out of the
	// pending queue, so a running job's start time is this value.
	started map[job.ID]float64
	// answered holds the jobs whose outstanding request the previous
	// invocation validly granted or denied and that asked for nothing
	// since (see observe).
	answered map[job.ID]bool
	failed   bool
	checked  int
	rebuilt  sched.JobView
}

func newViewChecker(t *testing.T, inner sched.Algorithm, label string) *viewChecker {
	return &viewChecker{
		inner: inner, label: label,
		started: map[job.ID]float64{}, answered: map[job.ID]bool{},
		report: func(msg string) { t.Error(msg) },
	}
}

func (c *viewChecker) Name() string { return c.inner.Name() }

// observe reads the event log as it is written: a new evolving request
// makes its job's answered request stale.
func (c *viewChecker) observe(ev TraceEvent) {
	if ev.Kind == EvEvolvingRequest {
		delete(c.answered, ev.Job)
	}
}

// WantsFreeList forwards the wrapped algorithm's sched.FreeListUser answer.
func (c *viewChecker) WantsFreeList() bool { return wantsFreeList(c.inner) }

func wantsFreeList(a sched.Algorithm) bool {
	u, ok := a.(sched.FreeListUser)
	return ok && u.WantsFreeList()
}

func (c *viewChecker) Schedule(inv *sched.Invocation) []sched.Decision {
	if !c.failed {
		c.check(inv)
	}
	ds := c.inner.Schedule(inv)
	for _, d := range ds {
		jr := c.e.runs.get(d.Job)
		if jr == nil {
			continue
		}
		switch d.Kind {
		case sched.DecisionStart:
			if jr.state == statePending {
				c.started[d.Job] = inv.Now
			}
		case sched.DecisionGrant, sched.DecisionDeny:
			j := jr.view.Job
			valid := d.Kind == sched.DecisionDeny || d.NumNodes >= j.MinNodes() && d.NumNodes <= j.MaxNodes()
			if j.Type == job.Evolving && jr.view.EvolvingRequest != 0 && valid {
				c.answered[d.Job] = true
			}
		}
	}
	return ds
}

func (c *viewChecker) check(inv *sched.Invocation) {
	c.checked++
	fail := func(format string, args ...any) {
		c.failed = true
		c.report(fmt.Sprintf("%s: invocation %d at t=%v: %s", c.label, c.checked, inv.Now, fmt.Sprintf(format, args...)))
	}
	for _, l := range []struct {
		name string
		got  []*sched.JobView
		list *runList
	}{{"pending", inv.Pending, &c.e.queue}, {"running", inv.Running, &c.e.running}} {
		var want []*jobRun
		for _, jr := range l.list.items {
			if jr != nil {
				want = append(want, jr)
			}
		}
		if len(l.got) != len(want) {
			fail("%s lists %d jobs, the run list %d", l.name, len(l.got), len(want))
			return
		}
		for i, jr := range want {
			if l.got[i] != &jr.view {
				fail("%s[%d] is job %d's view, the run list has job %d", l.name, i, l.got[i].ID, jr.view.Job.ID)
				return
			}
			rebuilt := &c.rebuilt
			c.e.fillView(rebuilt, jr, c.started[jr.view.Job.ID])
			if *l.got[i] != *rebuilt {
				fail("%s[%d] (job %d):\n got %+v\nwant %+v", l.name, i, jr.view.Job.ID, *l.got[i], *rebuilt)
				return
			}
		}
	}
	var down []int
	for _, o := range c.e.rec.Outages() {
		if o.End < 0 {
			down = append(down, o.Node)
		}
	}
	slices.Sort(down)
	if !slices.Equal(inv.DownNodes, down) {
		fail("DownNodes %v, open outages %v", inv.DownNodes, down)
		return
	}
	if c.e.opts.Trace == nil {
		return
	}
	for _, v := range inv.Running {
		if c.answered[v.ID] && v.EvolvingRequest != 0 {
			fail("job %d still shows request %d after it was answered", v.ID, v.EvolvingRequest)
			return
		}
	}
	clear(c.answered)
}

// killSome adds scheduler kills to the wrapped algorithm's decisions: some
// pending jobs after a wait and some running jobs after a while.
type killSome struct{ sched.Algorithm }

func (k killSome) WantsFreeList() bool { return wantsFreeList(k.Algorithm) }

func (k killSome) Schedule(inv *sched.Invocation) []sched.Decision {
	ds := k.Algorithm.Schedule(inv)
	for _, v := range inv.Pending {
		if v.ID%7 == 3 && inv.Now-v.SubmitTime > 300 {
			ds = append(ds, sched.Decision{Kind: sched.DecisionKill, Job: v.ID})
		}
	}
	for _, v := range inv.Running {
		if v.ID%5 == 1 && inv.Now-v.StartTime > 200 {
			ds = append(ds, sched.Decision{Kind: sched.DecisionKill, Job: v.ID})
		}
	}
	return ds
}

// builtinAlgorithms returns a fresh instance of every built-in algorithm.
func builtinAlgorithms() []sched.Algorithm {
	return []sched.Algorithm{
		&sched.FCFS{},
		&sched.EASY{},
		&sched.Conservative{},
		&sched.SJF{},
		&sched.Adaptive{},
		&sched.FirstFit{},
		&sched.FairShare{},
		&sched.Packed{},
	}
}

// viewScenario is one engine configuration the checker runs every
// built-in algorithm through.
type viewScenario struct {
	name     string
	seed     uint64
	recovery failure.RecoveryPolicy   // "" = no failures
	deps     bool                     // chain some jobs behind earlier ones
	kills    bool                     // wrap the algorithm in killSome
	tree     bool                     // a tree network, so packed placement pins nodes
	algos    func() []sched.Algorithm // nil = builtinAlgorithms
}

// run simulates the scenario under each of s.algos with a checker
// attached, returns how many trace events of each kind (and each
// finish status) the runs produced, and whether every check passed.
func (s viewScenario) run(t *testing.T, seen map[string]int) bool {
	ok := true
	algos := builtinAlgorithms
	if s.algos != nil {
		algos = s.algos
	}
	for _, algo := range algos() {
		w := randomWorkload(t, s.seed, 30)
		if s.deps {
			for i, j := range w.Jobs {
				if i >= 3 && i%4 == 0 {
					j.Dependencies = append(j.Dependencies, w.Jobs[i-3].ID)
				}
			}
		}
		var a sched.Algorithm = algo
		if s.kills {
			a = killSome{a}
		}
		label := fmt.Sprintf("%s/%s", s.name, algo.Name())
		c := newViewChecker(t, a, label)
		var log []TraceEvent
		collectLog := collect(&log)
		opts := Options{Trace: func(ev TraceEvent) { c.observe(ev); collectLog(ev) }}
		spec := testPlatform(16)
		if s.tree {
			spec = treePlatform(16, 4, 4*linkBW, 8*linkBW)
		}
		if s.recovery != "" {
			spec.Failures = &failure.Spec{
				Model: failure.ModelExponential, Seed: s.seed,
				MTBF: 20000, MTTR: 600, Recovery: s.recovery, MaxRequeues: 2,
			}
		}
		e, err := New(spec, w, c, opts)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		c.e = e
		// A stale list can stop a run from ever draining, so the first
		// mismatch ends it.
		for !c.failed && e.Advance(math.Inf(1), 1024) > 0 {
		}
		if c.failed {
			return false
		}
		if _, err := e.Finish(); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if c.checked == 0 {
			t.Errorf("%s: the algorithm was never invoked", label)
		}
		ok = ok && !c.failed
		for _, ev := range log {
			seen[string(ev.Kind)]++
			if ev.Kind == EvFinish {
				seen[ev.Detail()]++
			}
			if ev.Kind == EvStart && w.Jobs[ev.Job].Type == job.Moldable {
				seen["moldable-start"]++
			}
		}
	}
	return ok
}

// TestViewsMatchRebuild checks the persistent views against the fillView
// rebuild at every invocation of every built-in algorithm, over failures
// under each recovery policy, evolving grants and denials, held jobs
// released by their dependencies, moldable starts, and scheduler kills of
// pending and running jobs; then over a seeded random mix of all of them.
func TestViewsMatchRebuild(t *testing.T) {
	seen := map[string]int{}
	for _, s := range []viewScenario{
		{name: "shrink", seed: 1, recovery: failure.RecoverShrink},
		{name: "requeue", seed: 2, recovery: failure.RecoverRequeue},
		{name: "kill", seed: 3, recovery: failure.RecoverKill},
		{name: "deps", seed: 4, deps: true},
		{name: "scheduler-kills", seed: 5, kills: true},
		{name: "tree", seed: 6, recovery: failure.RecoverShrink, tree: true},
	} {
		s.run(t, seen)
	}
	policies := []failure.RecoveryPolicy{"", failure.RecoverShrink, failure.RecoverRequeue, failure.RecoverKill}
	mixed := func(seed uint16) bool {
		return viewScenario{
			name:     fmt.Sprintf("quick-%d", seed),
			seed:     uint64(seed) + 100,
			recovery: policies[seed%4],
			deps:     seed&4 != 0,
			kills:    seed&8 != 0,
			tree:     seed&16 != 0,
		}.run(t, seen)
	}
	if err := quick.Check(mixed, &quick.Config{MaxCount: 6, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
	// The runs must have reached every path that changes a view or a list.
	for _, k := range []string{
		string(EvRequeued), string(EvFailShrink), "status=failed-node",
		string(EvGranted), string(EvDenied), string(EvGrantApplied),
		string(EvReleased), string(EvReconfigured), string(EvSchedulingPoint),
		"killed-pending", "status=killed-by-scheduler", "moldable-start",
	} {
		if seen[k] == 0 {
			t.Errorf("no run reached %q: %v", k, seen)
		}
	}
}

// TestViewCheckerCatchesStaleView: the checker must notice a view that
// missed an update, or its silence above proves nothing.
func TestViewCheckerCatchesStaleView(t *testing.T) {
	stale := algoFunc(func(inv *sched.Invocation) []sched.Decision {
		var out []sched.Decision
		for _, v := range inv.Pending {
			out = append(out, sched.Start(v.ID, v.Job.NumNodes))
		}
		for _, v := range inv.Running {
			v.Nodes++ // an update the engine did not make
		}
		return out
	})
	c := newViewChecker(t, stale, "stale")
	var msgs []string
	c.report = func(msg string) { msgs = append(msgs, msg) }
	jobs := []*job.Job{computeJob(0, 1, 1e10), computeJob(1, 1, 1e10), computeJob(2, 1, 1e10)}
	jobs[1].SubmitTime = 1
	jobs[2].SubmitTime = 2
	w := &job.Workload{Jobs: jobs}
	e, err := New(testPlatform(4), w, c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.e = e
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(msgs) == 0 || !strings.Contains(msgs[0], "running[0]") {
		t.Errorf("checker reported %q, want a running[0] mismatch", msgs)
	}
}

// TestRunListViewList drives a run list through seeded adds, removals and
// compactions, and at random points compares viewList with the live items'
// views. The engine tests above rarely reach a compaction (more than 64
// tombstones), so this is where resuming after one is checked.
func TestRunListViewList(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	runs := make([]jobRun, 2000)
	var l runList
	var live []*jobRun
	compactions := 0
	for step := 0; step < 20000; step++ {
		switch op := r.Intn(10); {
		case op < 4 || len(live) == 0:
			jr := &runs[r.Intn(len(runs))]
			if slices.Contains(live, jr) {
				continue
			}
			l.add(jr)
			live = append(live, jr)
		case op < 8:
			i := r.Intn(len(live))
			n := len(l.items)
			l.remove(live[i])
			live = slices.Delete(live, i, i+1)
			if len(l.items) < n {
				compactions++
			}
		default:
			got := l.viewList()
			if len(got) != len(live) {
				t.Fatalf("step %d: viewList has %d views, the list %d jobs", step, len(got), len(live))
			}
			for i, jr := range live {
				if got[i] != &jr.view {
					t.Fatalf("step %d: viewList[%d] is not the view of the list's job %d", step, i, i)
				}
			}
		}
	}
	if compactions == 0 {
		t.Error("the list never compacted")
	}
}
