package fluid

import (
	"testing"

	"repro/internal/des"
)

// benchPool builds a pool with n long-running background activities. When
// shared is true they all contend on one global resource (one connected
// component), which it returns; otherwise each runs on a private resource
// (n singleton components — the shape job-private work would take if it
// were fluid), and it returns a fresh resource no activity uses.
func benchPool(b testing.TB, n int, shared bool) (*Pool, *Resource) {
	b.Helper()
	p := NewPool(des.NewKernel())
	var global *Resource
	if shared {
		global = p.NewResource("global", float64(n))
	}
	for i := 0; i < n; i++ {
		a := NewActivity("bg", 1e18, nil)
		if shared {
			a.AddUsage(global, 1)
		} else {
			a.AddUsage(p.NewResource("private", 100), 1)
		}
		p.Start(a)
	}
	if shared {
		return p, global
	}
	return p, p.NewResource("extra", 100)
}

// BenchmarkSolveDisjoint measures one Start+Cancel cycle of an activity
// whose resource is disjoint from 256 running background activities. The
// incremental solver only touches the one-activity component; the full
// solver re-solves all 257.
func BenchmarkSolveDisjoint(b *testing.B) {
	p, extra := benchPool(b, 256, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewActivity("probe", 1e18, nil)
		a.AddUsage(extra, 1)
		p.Start(a)
		p.Cancel(a)
	}
}

// BenchmarkSolveShared is the adversarial case: the churning activity
// shares one resource with all 256 background activities, so the touched
// component is the whole pool and incrementality cannot help. It bounds
// the overhead of the component machinery.
func BenchmarkSolveShared(b *testing.B) {
	p, shared := benchPool(b, 256, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewActivity("probe", 1e18, nil)
		a.AddUsage(shared, 1)
		p.Start(a)
		p.Cancel(a)
	}
}

// BenchmarkSolveLargeComponent is malleable_pfs's shape: one Start+Cancel
// cycle on a shared file system that 192 transfers already contend for,
// each also capped by its job's private link, next to 64 transfers on
// resources of their own. The re-solved component is three quarters of
// the pool, so it is filtered out of the start-ordered active list rather
// than sorted.
func BenchmarkSolveLargeComponent(b *testing.B) {
	k := des.NewKernel()
	p := NewPool(k)
	pfs := p.NewResource("pfs", 1000)
	for i := 0; i < 256; i++ {
		a := NewActivity("io", 1e18, nil)
		if i%4 == 3 {
			a.AddUsage(p.NewResource("private", 100), 1)
		} else {
			a.AddUsage(pfs, 1)
			a.AddUsage(p.NewResource("link", float64(2+i%7)), 1)
		}
		p.Start(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := NewActivity("probe", 1e18, nil)
		a.AddUsage(pfs, 1)
		p.Start(a)
		p.Cancel(a)
	}
}

// TestSolveSharedAllocs pins BenchmarkSolveShared's probe — one Start and
// Cancel on a 256-activity component — to the probe's own allocations (the
// Activity and its usage slice): re-solving the component re-keys all 257
// members but re-arms one recycled completion event, so no per-member
// event or handler is allocated. The pin is meaningless under the race
// detector, which allocates on its own; CI runs it without -race.
func TestSolveSharedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p, shared := benchPool(t, 256, true)
	allocs := testing.AllocsPerRun(200, func() {
		a := NewActivity("probe", 1e18, nil)
		a.AddUsage(shared, 1)
		p.Start(a)
		p.Cancel(a)
	})
	if allocs > 3 {
		t.Errorf("Start+Cancel on a 256-activity component allocates %.1f times, want <= 3", allocs)
	}
}

// BenchmarkChurn runs a full simulation: 200 activities with staggered
// amounts of work across 32 resources, executed to completion. Every
// completion triggers a re-solve that re-keys its component and re-arms
// the component's event, exercising the event cancel/reuse path end to
// end.
func BenchmarkChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		k := des.NewKernel()
		p := NewPool(k)
		resources := make([]*Resource, 32)
		for j := range resources {
			resources[j] = p.NewResource("r", 100)
		}
		rng := des.NewRNG(1)
		for j := 0; j < 200; j++ {
			a := NewActivity("a", rng.Range(1e3, 1e5), nil)
			a.AddUsage(resources[rng.Intn(len(resources))], 1)
			p.Start(a)
		}
		drain(k)
		if p.live != 0 {
			b.Fatal("activities left over")
		}
	}
}
