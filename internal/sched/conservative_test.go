package sched

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/job"
)

// byteSource doles out fuzz input one byte at a time; past the end it
// yields zeros, so every input decodes to some invocation.
type byteSource struct {
	b []byte
	i int
}

func (s *byteSource) next() int {
	if s.i >= len(s.b) {
		return 0
	}
	s.i++
	return int(s.b[s.i-1])
}

// decodeInvocation builds a small invocation that leans on the profile's
// edge cases: ties in ExpectedEnd, ends at or before Now, running jobs
// without an end, walltimes absent (+Inf) or too small to move a float
// start (zero durations), requests above TotalNodes, malleable jobs, and
// empty Running or Pending lists.
func decodeInvocation(s *byteSource) *Invocation {
	nows := []float64{0, 100, -5, 1e6, 1e16}
	inv := &Invocation{Now: nows[s.next()%len(nows)]}
	inv.TotalNodes = 1 + s.next()%32
	inv.FreeNodes = s.next() % (inv.TotalNodes + 1)
	for i, n := 0, s.next()%8; i < n; i++ {
		v := mkRunning(i, 1+s.next()%8, inv.Now, 0)
		switch k := s.next(); k % 6 {
		case 0:
			v.ExpectedEnd = math.Inf(1)
		case 1:
			v.ExpectedEnd = inv.Now
		case 2:
			v.ExpectedEnd = inv.Now - float64(k%5)
		default:
			v.ExpectedEnd = inv.Now + 10*float64(k%8)
		}
		inv.Running = append(inv.Running, v)
	}
	for i, n := 0, s.next()%12; i < n; i++ {
		var wall float64
		switch k := s.next(); k % 5 {
		case 0: // no walltime: +Inf duration
		case 1:
			wall = 1e-9 // vanishes next to a large Now
		case 2:
			wall = 0.5 + float64(k%7)
		default:
			wall = 10 * float64(1+k%6)
		}
		v := mkPending(100+i, 1+s.next()%(inv.TotalNodes+4), wall)
		if m := s.next(); m%4 == 0 {
			v.Job.Type = job.Malleable
			v.Job.NumNodesMin = 1 + m%5
			v.Job.NumNodesMax = v.Job.NumNodesMin + s.next()%40
			syncView(v)
		}
		inv.Pending = append(inv.Pending, v)
	}
	return inv
}

// checkAgainstReference runs Conservative and refConservative on the
// invocation decoded from data and fails on the first difference: in the
// decision slices, in the profiles newProfile builds, in any earliest
// answer, or in the profiles after any reservation. The remaining input
// then drives up to 64 earliest and reserve calls directly, with starts and
// windows Schedule never produces (before now, between breakpoints, zero
// length).
func checkAgainstReference(t *testing.T, data []byte) {
	t.Helper()
	s := &byteSource{b: data}
	inv := decodeInvocation(s)
	got := (&Conservative{}).Schedule(inv)
	want := (&refConservative{}).Schedule(inv)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions differ:\n got %v\nwant %v", got, want)
	}

	p, ref := newProfile(inv), refNewProfile(inv)
	same := func(step string) {
		t.Helper()
		if !slices.Equal(p.times, ref.times) || !slices.Equal(p.free, ref.free) {
			t.Fatalf("after %s: profile (%v, %v), reference (%v, %v)", step, p.times, p.free, ref.times, ref.free)
		}
	}
	same("newProfile")
	for _, v := range inv.Pending {
		n := RequestedSize(v, inv.TotalNodes)
		if n == 0 {
			n = v.Job.MinNodes()
		}
		dur := wallTimeOrInf(v.Job)
		a, b := p.earliest(inv.Now, n, dur), ref.earliest(inv.Now, n, dur)
		if a != b {
			t.Fatalf("job %d: earliest %v, reference %v", v.ID, a, b)
		}
		p.reserve(a, dur, n)
		ref.reserve(b, dur, n)
		same(fmt.Sprint("reserving job ", v.ID))
	}

	durs := []float64{0, 5, 10, 25, math.Inf(1)}
	for ops := 0; ops < 64 && s.i < len(s.b); ops++ {
		op, n, dur := s.next(), s.next()%40, durs[s.next()%len(durs)]
		at := ref.times[s.next()%len(ref.times)] + float64(s.next()%3-1)*2.5
		// earliest promises the first breakpoint >= now. Past the last
		// breakpoint there is none; the reference then falls back to the
		// last one, a time before now, which Schedule (now == times[0])
		// never sees. Probe only where the contract holds.
		if op%2 == 0 {
			if a, b := p.earliest(at, n, dur), ref.earliest(at, n, dur); at <= ref.times[len(ref.times)-1] && a != b {
				t.Fatalf("earliest(%v, %d, %v) = %v, reference %v", at, n, dur, a, b)
			}
			continue
		}
		p.reserve(at, dur, n)
		ref.reserve(at, dur, n)
		same("direct reserve")
	}
}

// referenceSeeds are hand-written inputs for the edge cases above (the
// byte layout is decodeInvocation's) plus a fixed-seed random batch.
func referenceSeeds() [][]byte {
	seeds := [][]byte{
		{},                                     // empty Running and Pending
		{0, 9, 0, 0, 3, 0, 1, 1, 0, 0, 0},      // empty Running, +Inf walltimes
		{0, 7, 3, 2, 4, 3, 4, 3, 0},            // empty Pending, tied ends
		{1, 15, 2, 3, 4, 1, 4, 2, 8, 6, 3, 3},  // ends at and before Now
		{3, 15, 0, 2, 8, 3, 8, 3, 4, 1, 5, 1},  // zero durations at Now = 1e6
		{0, 7, 8, 1, 8, 4, 3, 3, 30, 1, 3, 30}, // requests above TotalNodes
		{2, 31, 5, 4, 9, 5, 9, 5, 9, 0, 9, 0, 5, // ties, an endless runner
			8, 3, 4, 0, 12, 2, 5, 1, 9, 16, 4, 8, 0, 6, 2, 1, 1, 0, 2, 3, 1},
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1500; i++ {
		b := make([]byte, 20+r.Intn(100))
		r.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

func TestConservativeMatchesReference(t *testing.T) {
	for _, b := range referenceSeeds() {
		checkAgainstReference(t, b)
	}
}

func FuzzConservative(f *testing.F) {
	for _, b := range referenceSeeds()[:20] {
		f.Add(b)
	}
	f.Fuzz(checkAgainstReference)
}

// deepQueueInvocation mimics a backlogged conservative pass of the
// benchmark's deep_queue workload: 512 nodes, 26 running jobs and 173
// pending, rigid, with walltimes that leave many distinct breakpoints.
func deepQueueInvocation() *Invocation {
	r := rand.New(rand.NewSource(7))
	inv := &Invocation{Now: 5000, TotalNodes: 512}
	used := 0
	for i := 0; i < 26; i++ {
		n := 1 + r.Intn(32)
		used += n
		inv.Running = append(inv.Running, mkRunning(i, n, 4000, 5000+float64(1+r.Intn(3600))))
	}
	inv.FreeNodes = inv.TotalNodes - used
	for i := 0; i < 173; i++ {
		inv.Pending = append(inv.Pending, mkPending(26+i, 1+r.Intn(128), float64(60+r.Intn(3600))))
	}
	return inv
}

func TestConservativeScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	inv := deepQueueInvocation()
	c := &Conservative{}
	// The O(P·B²) profile made 31 allocations here: slices grown by
	// insertion, a heap-allocated profile and sort.Slice's reflect swapper.
	// Now: the presized times and free, the releases, and three for the
	// decisions slice growing by append.
	if got := testing.AllocsPerRun(20, func() { c.Schedule(inv) }); got != 6 {
		t.Errorf("Schedule allocates %v times per call, want 6", got)
	}
}

func BenchmarkConservativeSchedule(b *testing.B) {
	inv := deepQueueInvocation()
	c := &Conservative{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Schedule(inv)
	}
}
