package fluid

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/des"
)

// refOrderComponent is how solveComponent put a component in start order
// before the pool kept p.active in that order, kept verbatim as the oracle
// for orderComponent.
func refOrderComponent(comp []*Activity) {
	slices.SortFunc(comp, func(a, b *Activity) int {
		if a.seq < b.seq {
			return -1
		}
		return 1
	})
}

// checkPoolOrder checks p.active — start order, tombstones aside, indexes
// and live count current — then collects every component afresh, each
// under its own stamp, and checks orderComponent against
// refOrderComponent. It returns how many components took the filter path
// and how many were sorted.
func checkPoolOrder(t *testing.T, p *Pool, step string) (filtered, sorted int) {
	t.Helper()
	live := 0
	var prev *Activity
	for i, a := range p.active {
		if a == nil {
			continue
		}
		live++
		if a.index != i {
			t.Fatalf("%s: activity seq %d at %d records index %d", step, a.seq, i, a.index)
		}
		if prev != nil && prev.seq >= a.seq {
			t.Fatalf("%s: seq %d listed after seq %d", step, a.seq, prev.seq)
		}
		prev = a
	}
	if live != p.live {
		t.Fatalf("%s: %d live entries, live count %d", step, live, p.live)
	}
	if n := len(p.active); n > 0 && p.active[n-1] == nil {
		t.Fatalf("%s: trailing tombstone left in active", step)
	}
	first := p.stamp + 1
	for _, a := range p.active {
		if a == nil || a.mark >= first {
			continue
		}
		p.stamp++
		p.collectFrom(a)
		want := slices.Clone(p.comp)
		refOrderComponent(want)
		if p.filterPays() {
			filtered++
		} else {
			sorted++
		}
		p.orderComponent()
		if !slices.Equal(p.comp, want) {
			t.Fatalf("%s: component of seq %d ordered %v, want %v", step, a.seq, seqs(p.comp), seqs(want))
		}
	}
	return filtered, sorted
}

func seqs(comp []*Activity) []uint64 {
	out := make([]uint64, len(comp))
	for i, a := range comp {
		out[i] = a.seq
	}
	return out
}

// TestComponentOrderMatchesSort drives pools through seeded random runs of
// Start, Cancel and completions — growing, then draining, so tombstones
// pile up and compact — and after every operation checks every rate
// against the full recompute and every component's order against the sort
// it replaced. Pools range from one shared resource (one component,
// filtered) to many (small components, sorted), so both paths are
// exercised.
func TestComponentOrderMatchesSort(t *testing.T) {
	var filtered, sorted, compactions int
	for seed := uint64(1); seed <= 40; seed++ {
		rng := des.NewRNG(seed)
		k := des.NewKernel()
		p := NewPool(k)
		res := make([]*Resource, 1+rng.Intn(24))
		for i := range res {
			res[i] = p.NewResource("r", rng.Range(1, 100))
		}
		const ops = 600
		for op := 0; op < ops; op++ {
			startP := 0.75
			if op >= ops/2 {
				startP = 0.2
			}
			// Compaction is the one thing that moves a live activity.
			var last *Activity
			lastAt := len(p.active) - 1
			if lastAt >= 0 {
				last = p.active[lastAt]
			}
			switch r := rng.Float64(); {
			case r < startP || p.live == 0:
				a := NewActivity("a", rng.Range(1, 1000), nil)
				used := map[int]bool{}
				for j := 0; j < 3; j++ {
					if ri := rng.Intn(len(res)); j == 0 || !used[ri] && rng.Float64() < 0.5 {
						used[ri] = true
						a.AddUsage(res[ri], rng.Range(0.5, 2))
					}
				}
				p.Start(a)
			case r < startP+(1-startP)/2:
				i := rng.Intn(len(p.active))
				for p.active[i] == nil {
					i = (i + 1) % len(p.active)
				}
				p.Cancel(p.active[i])
			default:
				k.Step()
			}
			if last != nil && last.index >= 0 && last.index != lastAt {
				compactions++
			}
			if err := p.CheckFullSolve(); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			f, s := checkPoolOrder(t, p, fmt.Sprintf("seed %d op %d", seed, op))
			filtered += f
			sorted += s
		}
	}
	t.Logf("%d filtered components, %d sorted, %d compactions", filtered, sorted, compactions)
	if filtered == 0 || sorted == 0 || compactions == 0 {
		t.Errorf("coverage: %d filtered components, %d sorted, %d compactions; want all > 0", filtered, sorted, compactions)
	}
}

// TestRemovalSplitsLargeComponent: a bridge activity X spans two shared
// resources, R1 (eight activities of part A) and R2 (ten of part B). Its
// completion splits one 19-activity component into two that are each a
// large share of the pool, so orderComponent filters them out of
// p.active, and the removal starts one traversal per part; with full set,
// the full recompute (solveAll, through CheckFullSolve after every event)
// does the same. Each traversal must stamp its own component: under one
// shared stamp, the second filter picks up the first part as well,
// re-solves it against the second part's resources only, and leaves the
// two parts one armed completion event between them.
//
// Closed form: a part of n activities runs on capacity n+1, so while X
// (work 10) runs every activity progresses at 1 and X ends at 10. Then the
// part runs alone at (n+1)/n per activity: work w ends at
// 10 + (w-10)·n/(n+1).
func TestRemovalSplitsLargeComponent(t *testing.T) {
	sizes := [2]int{8, 10}
	for _, full := range []bool{false, true} {
		for _, w := range [][2]float64{{21.25, 32}, {32.5, 21}} {
			k := des.NewKernel()
			p := NewPool(k)
			var ends [2][]des.Time
			var parts [2]*Resource
			for g, n := range sizes {
				parts[g] = p.NewResource("part", float64(n+1))
				for i := 0; i < n; i++ {
					a := NewActivity("a", w[g], func() { ends[g] = append(ends[g], k.Now()) })
					a.AddUsage(parts[g], 1)
					p.Start(a)
				}
			}
			filtered := false
			x := NewActivity("X", 10, func() {
				p.stamp++
				p.collectFrom(p.active[0])
				filtered = p.filterPays()
			})
			x.AddUsage(parts[0], 1)
			x.AddUsage(parts[1], 1)
			p.Start(x)
			for k.Step() {
				if !full {
					continue
				}
				if err := p.CheckFullSolve(); err != nil {
					t.Fatalf("w=%v: %v", w, err)
				}
			}
			if !filtered {
				t.Errorf("full=%v: part A is sorted, not filtered out of the pool", full)
			}
			for g, n := range sizes {
				if len(ends[g]) != n {
					t.Errorf("full=%v w=%v: part %d completed %d of %d", full, w, g, len(ends[g]), n)
					continue
				}
				want := 10 + (w[g]-10)*float64(n)/float64(n+1)
				for _, at := range ends[g] {
					if !almost(float64(at), want) {
						t.Errorf("full=%v w=%v: part %d completion at %v, want %v", full, w, g, at, want)
					}
				}
			}
		}
	}
}
