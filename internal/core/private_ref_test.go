package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/des"
	"repro/internal/fluid"
	"repro/internal/job"
	"repro/internal/platform"
	"repro/internal/sched"
)

// This file keeps the full-fluid model of job-private work as the oracle
// for the closed forms in startTask, startComm and startIO. The engine once
// ran it behind an option: platform.Build gave every node a compute
// resource, an injection link and, with node-local burst buffers, a read
// and a write resource, and each task added one usage per node on them.
// Here that construction and those usage loops build activities in a test
// pool, beside the shared resources platform.Build still makes, and a
// one- or two-job engine run must end each job when the pool's solve
// does.

// refTol bounds |engine − oracle| relative to the oracle's completion time.
// The closed forms and the solver round differently (w/c summed against
// remaining/rate); the largest gap measured over every case below is
// 2.1e-16, one unit in the last place.
const refTol = 1e-12

// refNodes holds the per-node resources platform.Build used to create.
type refNodes struct {
	compute []*fluid.Resource
	link    []*fluid.Resource
	bbRead  []*fluid.Resource // node-local burst buffer, nil otherwise
	bbWrite []*fluid.Resource
}

func newRefNodes(spec *platform.Spec, pool *fluid.Pool) *refNodes {
	r := &refNodes{}
	id := platform.NodeID(0)
	for _, g := range spec.Nodes {
		for i := 0; i < g.Count; i++ {
			name := fmt.Sprintf("node%d", int(id))
			r.compute = append(r.compute, pool.NewResource(name+".cpu", float64(g.Speed)))
			r.link = append(r.link, pool.NewResource(name+".link", float64(spec.Network.LinkBandwidth)))
			if bb := spec.BurstBuffer; bb != nil && bb.Kind == platform.BBNodeLocal {
				r.bbRead = append(r.bbRead, pool.NewResource(name+".bb.read", float64(bb.ReadBandwidth)))
				r.bbWrite = append(r.bbWrite, pool.NewResource(name+".bb.write", float64(bb.WriteBandwidth)))
			}
			id++
		}
	}
	return r
}

// refJob is one single-task job of an oracle case: n nodes, allocated
// after the previous jobs' nodes, as the engine's lowest-ID-first
// allocator places jobs that start together.
type refJob struct {
	task job.Task
	n    int
}

func (j refJob) String() string {
	what := string(j.task.Kind)
	switch j.task.Kind {
	case job.TaskComm:
		what += "/" + string(j.task.Pattern)
	case job.TaskRead, job.TaskWrite:
		what += "/" + string(j.task.Target)
	}
	return fmt.Sprintf("%s@%d", what, j.n)
}

// refEnds runs jobs, all started at time 0, on the full-fluid model in a
// fresh pool under fairness f, and returns each job's completion time.
func refEnds(t *testing.T, spec *platform.Spec, f fluid.Fairness, jobs []refJob) []float64 {
	t.Helper()
	k := des.NewKernel()
	pool := fluid.NewPool(k)
	pool.SetFairness(f)
	plat, err := platform.Build(spec, pool)
	if err != nil {
		t.Fatal(err)
	}
	r := newRefNodes(spec, pool)
	ends := make([]float64, len(jobs))
	next := 0
	for i, j := range jobs {
		nodes := make([]platform.NodeID, j.n)
		for x := range nodes {
			nodes[x] = platform.NodeID(next)
			next++
		}
		done := func() { ends[i] = float64(k.Now()) }
		magnitude, err := j.task.Model.Eval(nil, j.n)
		if err != nil {
			t.Fatal(err)
		}
		r.start(k, pool, plat, &jobs[i].task, nodes, magnitude, done)
	}
	for k.Step() {
	}
	return ends
}

// start begins one task the way the engine's full-fluid path did.
func (r *refNodes) start(k *des.Kernel, pool *fluid.Pool, plat *platform.Platform, t *job.Task, nodes []platform.NodeID, magnitude float64, done func()) {
	n := len(nodes)
	switch t.Kind {
	case job.TaskCompute:
		a := fluid.NewActivity("compute", magnitude, done)
		for _, id := range nodes {
			a.AddUsage(r.compute[id], 1)
		}
		pool.Start(a)
	case job.TaskComm:
		if n <= 1 || magnitude <= 0 {
			k.ScheduleAfter(0, des.PriorityEngine, done)
			return
		}
		linkW, rootW, backboneW := job.CommWeights(t.Pattern, n)
		type sharedUsage struct {
			res    *fluid.Resource
			weight float64
		}
		var shared []sharedUsage
		backbone := plat.Backbone()
		if plat.IsTree() {
			uplinkW, coreW := job.UplinkWeights(t.Pattern, n, plat.GroupCounts(nodes))
			groups := make([]int, 0, len(uplinkW))
			for g := range uplinkW {
				groups = append(groups, g)
			}
			sort.Ints(groups)
			for _, g := range groups {
				shared = append(shared, sharedUsage{plat.Uplink(g), uplinkW[g]})
			}
			if backbone != nil && coreW > 0 {
				shared = append(shared, sharedUsage{backbone, coreW})
			}
		} else if backbone != nil && backboneW > 0 {
			shared = append(shared, sharedUsage{backbone, backboneW})
		}
		begin := func() {
			a := fluid.NewActivity(string(t.Pattern), magnitude, done)
			for _, u := range shared {
				a.AddUsage(u.res, u.weight)
			}
			for i, id := range nodes {
				w := linkW
				if i == 0 {
					w = rootW
				}
				a.AddUsage(r.link[id], w)
			}
			pool.Start(a)
		}
		if lat := plat.Latency(); lat > 0 {
			k.ScheduleAfter(des.Time(lat), des.PriorityEngine, begin)
			return
		}
		begin()
	case job.TaskRead, job.TaskWrite:
		if magnitude <= 0 {
			k.ScheduleAfter(0, des.PriorityEngine, done)
			return
		}
		read := t.Kind == job.TaskRead
		share := 1 / float64(n)
		a := fluid.NewActivity(string(t.Kind), magnitude, done)
		switch {
		case t.Target == job.TargetBB && plat.BurstBufferKind() == platform.BBNodeLocal:
			for _, id := range nodes {
				bb := r.bbWrite[id]
				if read {
					bb = r.bbRead[id]
				}
				a.AddUsage(bb, share)
			}
		default:
			res := plat.PFSWrite()
			switch {
			case t.Target == job.TargetPFS && read:
				res = plat.PFSRead()
			case t.Target == job.TargetBB && read:
				res = plat.BBRead()
			case t.Target == job.TargetBB:
				res = plat.BBWrite()
			}
			a.AddUsage(res, 1)
			refTreeIOUsages(plat, a, nodes)
			for _, id := range nodes {
				a.AddUsage(r.link[id], share)
			}
		}
		pool.Start(a)
	}
}

// refTreeIOUsages is the engine's addTreeIOUsages over a node list.
func refTreeIOUsages(plat *platform.Platform, a *fluid.Activity, nodes []platform.NodeID) {
	if !plat.IsTree() {
		return
	}
	n := float64(len(nodes))
	counts := plat.GroupCounts(nodes)
	groups := make([]int, 0, len(counts))
	for g := range counts {
		groups = append(groups, g)
	}
	sort.Ints(groups)
	for _, g := range groups {
		a.AddUsage(plat.Uplink(g), float64(counts[g])/n)
	}
	if core := plat.Backbone(); core != nil {
		a.AddUsage(core, 1)
	}
}

// engineEnds runs jobs as rigid one-task jobs submitted at time 0 under
// FCFS, which starts them all at once in order, and returns each job's end.
func engineEnds(t *testing.T, spec *platform.Spec, f fluid.Fairness, jobs []refJob) []float64 {
	t.Helper()
	var js []*job.Job
	for i, j := range jobs {
		js = append(js, &job.Job{
			ID: job.ID(i), Type: job.Rigid, NumNodes: j.n,
			App: &job.Application{Phases: []job.Phase{{Tasks: []job.Task{j.task}}}},
		})
	}
	rec, _ := runSim(t, spec, js, &sched.FCFS{}, Options{Fairness: f})
	ends := make([]float64, len(jobs))
	for i := range jobs {
		r := record(rec, job.ID(i))
		if r.Start != 0 {
			t.Fatalf("job %d started at %v, want 0", i, r.Start)
		}
		ends[i] = r.End
	}
	return ends
}

// checkPrivateRef compares the engine with the full-fluid oracle on every
// case under both fairness policies and returns the largest relative gap.
func checkPrivateRef(t *testing.T, spec func() *platform.Spec, cases [][]refJob) float64 {
	t.Helper()
	worst := 0.0
	for _, f := range []fluid.Fairness{fluid.MaxMin, fluid.EqualSplit} {
		for _, c := range cases {
			got, want := engineEnds(t, spec(), f, c), refEnds(t, spec(), f, c)
			for i := range c {
				gap := math.Abs(got[i]-want[i]) / math.Max(1, math.Abs(want[i]))
				worst = math.Max(worst, gap)
				if !(gap <= refTol) {
					t.Errorf("%v %v: job %d (%v) ends at %v, oracle %v", f, c, i, c[i], got[i], want[i])
				}
			}
		}
	}
	return worst
}

func computeTask(flops string) job.Task {
	return job.Task{Kind: job.TaskCompute, Model: job.MustExprModel(flops)}
}

func commTask(p job.CommPattern, bytes string) job.Task {
	return job.Task{Kind: job.TaskComm, Pattern: p, Model: job.MustExprModel(bytes)}
}

func ioTask(kind job.TaskKind, target job.IOTarget, bytes string) job.Task {
	return job.Task{Kind: kind, Target: target, Model: job.MustExprModel(bytes)}
}

var (
	refSizes    = []int{1, 2, 3, 8}
	refPatterns = []job.CommPattern{job.PatternAllToAll, job.PatternAllReduce, job.PatternRing, job.PatternBroadcast, job.PatternGather}
)

// alone lists one single-job case per size.
func alone(task job.Task) [][]refJob {
	var out [][]refJob
	for _, n := range refSizes {
		out = append(out, []refJob{{task, n}})
	}
	return out
}

// beside lists, per size, the task beside a competitor on the next nodes.
func beside(task job.Task, competitor refJob) [][]refJob {
	var out [][]refJob
	for _, n := range refSizes {
		out = append(out, []refJob{{task, n}, competitor})
	}
	return out
}

// TestFastPathEquivalence checks the closed forms of job-private work, and
// the rate caps that stand in for private links on work crossing shared
// resources, against the full-fluid oracle on five platform shapes: a one-
// job run's end equals the oracle pool's solve, and so do both ends of a
// run beside a competing job on the same shared resource, under max-min
// and equal-split sharing. When two jobs start together and end when the
// oracle's do, the first finisher's rate over the overlap is the
// oracle's, and the second's after it.
func TestFastPathEquivalence(t *testing.T) {
	base := func() *platform.Spec {
		s := testPlatform(16)
		s.Network.Latency = 0.25
		return s
	}
	pfsCases := func() [][]refJob {
		var out [][]refJob
		for _, k := range []job.TaskKind{job.TaskRead, job.TaskWrite} {
			out = append(out, alone(ioTask(k, job.TargetPFS, "3G"))...)
			out = append(out, beside(ioTask(k, job.TargetPFS, "3G"), refJob{ioTask(k, job.TargetPFS, "5G"), 8})...)
		}
		return out
	}
	commCases := func(competitor bool) [][]refJob {
		var out [][]refJob
		for _, p := range refPatterns {
			out = append(out, alone(commTask(p, "600M"))...)
			if competitor {
				out = append(out, beside(commTask(p, "600M"), refJob{commTask(job.PatternAllToAll, "200M"), 8})...)
			}
		}
		return out
	}
	shapes := []struct {
		name  string
		spec  func() *platform.Spec
		cases func() [][]refJob
	}{
		{"star", base, func() [][]refJob {
			out := append(alone(computeTask("6e9")), commCases(false)...)
			return append(out, pfsCases()...)
		}},
		{"backbone", func() *platform.Spec {
			s := base()
			s.Network.Topology = platform.TopologyBackbone
			s.Network.BackboneBandwidth = 5e9
			return s
		}, func() [][]refJob { return append(commCases(true), pfsCases()...) }},
		{"tree", func() *platform.Spec {
			s := base()
			s.Network.Topology = platform.TopologyTree
			s.Network.GroupSize = 4
			s.Network.UplinkBandwidth = 2e9
			s.Network.BackboneBandwidth = 6e9
			return s
		}, func() [][]refJob { return append(commCases(true), pfsCases()...) }},
		{"node-local-bb", func() *platform.Spec {
			s := base()
			s.BurstBuffer = &platform.BurstBufferSpec{Kind: platform.BBNodeLocal, ReadBandwidth: 2e9, WriteBandwidth: 1.5e9}
			return s
		}, func() [][]refJob {
			return append(alone(ioTask(job.TaskRead, job.TargetBB, "3G")), alone(ioTask(job.TaskWrite, job.TargetBB, "3G"))...)
		}},
		{"shared-bb", func() *platform.Spec {
			s := base()
			s.BurstBuffer = &platform.BurstBufferSpec{Kind: platform.BBShared, ReadBandwidth: 3e9, WriteBandwidth: 2.5e9}
			return s
		}, func() [][]refJob {
			var out [][]refJob
			for _, k := range []job.TaskKind{job.TaskRead, job.TaskWrite} {
				out = append(out, alone(ioTask(k, job.TargetBB, "3G"))...)
				out = append(out, beside(ioTask(k, job.TargetBB, "3G"), refJob{ioTask(k, job.TargetBB, "5G"), 8})...)
			}
			return out
		}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			t.Logf("largest relative gap %.3g", checkPrivateRef(t, sh.spec, sh.cases()))
		})
	}
}

// TestHeterogeneousFastPathEquivalence checks compute on nodes of unequal
// speeds against the oracle. The first node is not the slowest, so a
// closed form must take the minimum over the whole allocation.
func TestHeterogeneousFastPathEquivalence(t *testing.T) {
	spec := func() *platform.Spec {
		s := testPlatform(1)
		s.Nodes = nil
		for _, speed := range []float64{3e9, 1e9, 2e9, 1.5e9, 4e9, 0.5e9, 2.5e9, 1e9} {
			s.Nodes = append(s.Nodes, platform.NodeGroupSpec{Count: 1, Speed: platform.Quantity(speed)})
		}
		return s
	}
	t.Logf("largest relative gap %.3g", checkPrivateRef(t, spec, alone(computeTask("6e9"))))
}
