package sched

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/job"
)

// randomInvocation builds a seeded invocation that gives every algorithm
// something to do: rigid and malleable jobs running (the malleable ones
// often at a scheduling point, so resizable), evolving requests
// outstanding, a few down nodes, and a queue whose head is often too wide
// for the free nodes but admissible by shrinking, with backfill candidates
// behind it.
func randomInvocation(r *rand.Rand) *Invocation {
	inv := &Invocation{Now: float64(r.Intn(5000)), TotalNodes: 16 + r.Intn(49)}
	if r.Intn(2) == 0 {
		inv.GroupSize = 4
	}
	used := 0
	for i := 0; i < 1+r.Intn(8) && used < inv.TotalNodes; i++ {
		n := 1 + r.Intn(min(8, inv.TotalNodes-used))
		var v *JobView
		switch r.Intn(3) {
		case 0:
			v = mkRunning(i, n, inv.Now-float64(r.Intn(1000)), inv.Now+float64(r.Intn(2000)))
			if r.Intn(4) == 0 {
				v.ExpectedEnd = math.Inf(1)
			}
		case 1:
			minN := 1 + r.Intn(n)
			v = mkMalleable(i, n, minN, n+r.Intn(16), r.Intn(4) != 0)
			v.ExpectedEnd = inv.Now + float64(r.Intn(2000))
		default:
			v = mkMalleable(i, n, 1, n+8, false)
			v.Job.Type = job.Evolving
			syncView(v)
			v.EvolvingRequest = 1 + r.Intn(n+8)
		}
		inv.Running = append(inv.Running, v)
		used += n
	}
	down := r.Intn(3)
	inv.FreeNodes = max(0, inv.TotalNodes-used-down)
	for n := used; n < inv.TotalNodes; n++ {
		if n < inv.TotalNodes-down {
			inv.FreeList = append(inv.FreeList, n)
		} else {
			inv.DownNodes = append(inv.DownNodes, n)
		}
	}
	for i := 0; i < r.Intn(12); i++ {
		id := 100 + i
		var v *JobView
		if i == 0 {
			// Often wider than the free nodes: a blocked head.
			v = mkPending(id, inv.FreeNodes+1+r.Intn(8), float64(60+r.Intn(600)))
		} else {
			v = mkPending(id, 1+r.Intn(8), float64(r.Intn(600)))
		}
		if r.Intn(3) == 0 {
			v.Job.Type = job.Malleable
			v.Job.NumNodesMin = max(1, v.Job.NumNodes-r.Intn(4))
			v.Job.NumNodesMax = v.Job.NumNodes + r.Intn(8)
			syncView(v)
		}
		v.SubmitTime = inv.Now - float64(r.Intn(1000))
		v.Job.User = []string{"a", "b", "c"}[r.Intn(3)]
		inv.Pending = append(inv.Pending, v)
	}
	return inv
}

// invocationCopy is a deep copy of what an algorithm is handed.
type invocationCopy struct {
	pending, running []*JobView // the pointers, in order
	views            []JobView  // the views' values, pending then running
	jobs             []job.Job  // the jobs' values, same order
	freeList, down   []int
}

func copyInvocation(inv *Invocation) invocationCopy {
	c := invocationCopy{
		pending:  slices.Clone(inv.Pending),
		running:  slices.Clone(inv.Running),
		freeList: slices.Clone(inv.FreeList),
		down:     slices.Clone(inv.DownNodes),
	}
	for _, v := range append(slices.Clone(inv.Pending), inv.Running...) {
		c.views = append(c.views, *v)
		c.jobs = append(c.jobs, *v.Job)
	}
	return c
}

// TestAlgorithmsLeaveViewsUntouched: an Invocation and its views are
// read-only (sched.Algorithm), and the engine hands the same views to the
// next invocation, so no built-in algorithm may write into them.
func TestAlgorithmsLeaveViewsUntouched(t *testing.T) {
	algos := func() []Algorithm {
		return []Algorithm{
			&FCFS{}, &EASY{}, &Conservative{}, &SJF{}, &Adaptive{},
			&FirstFit{}, &FairShare{}, &Packed{},
		}
	}
	shrinks := 0
	for _, a := range algos() {
		r := rand.New(rand.NewSource(1))
		for i := 0; i < 2000; i++ {
			inv := randomInvocation(r)
			before := copyInvocation(inv)
			ds := a.Schedule(inv)
			after := copyInvocation(inv)
			if !reflect.DeepEqual(before, after) {
				t.Fatalf("%s, invocation %d: the algorithm changed what it was handed:\nbefore %+v\n after %+v", a.Name(), i, before.views, after.views)
			}
			if _, ok := a.(*Adaptive); ok {
				for _, d := range ds {
					for _, v := range inv.Running {
						if d.Kind == DecisionResize && d.Job == v.ID && d.NumNodes < v.Nodes {
							shrinks++
						}
					}
				}
			}
		}
	}
	if shrinks == 0 {
		t.Error("adaptive never shrank a job: the invocations do not reach its shrink phase")
	}
}
