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
		inv.Pending = append(inv.Pending, decodePending(s, job.ID(100+i), inv.TotalNodes))
	}
	return inv
}

// decodePending builds one pending view for decodeInvocation: a rigid or
// malleable job, possibly above total nodes, with a walltime that may be
// absent or vanish next to a large Now.
func decodePending(s *byteSource, id job.ID, total int) *JobView {
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
	v := mkPending(int(id), 1+s.next()%(total+4), wall)
	if m := s.next(); m%4 == 0 {
		v.Job.Type = job.Malleable
		v.Job.NumNodesMin = 1 + m%5
		v.Job.NumNodesMax = v.Job.NumNodesMin + s.next()%40
		syncView(v)
	}
	return v
}

// newProfile is the profile a full pass on inv starts from.
func newProfile(inv *Invocation) profile {
	var p profile
	p.reset(inv.Now, inv.FreeNodes, appendReleases(nil, inv.Running), 0)
	return p
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

// clone copies p into buffers of its own.
func (p profile) clone() profile {
	return profile{slices.Clone(p.times), slices.Clone(p.free)}
}

// checkPlace places inv's pending jobs in queue order on a fresh profile.
// Before each one it checks that place, from every lower bound between now
// and the sweep's start, returns that start and leaves the profile that
// earliest and reserve leave. The job's own walltime carries the profile
// forward; a zero and a negative duration, which no JobView has, are
// probed on the side, as reserve's windows that claim nothing.
func checkPlace(t *testing.T, inv *Invocation) {
	t.Helper()
	p := newProfile(inv)
	for _, v := range inv.Pending {
		n := reservedSize(v, inv.TotalNodes)
		for k, dur := range []float64{v.WallTime, 0, -2.5} {
			start := p.earliest(inv.Now, n, dur)
			want := p.clone()
			want.reserve(start, dur, n)
			var lbs []float64
			for i, bp := range p.times {
				if bp > start {
					break
				}
				lbs = append(lbs, bp)
				if i+1 < len(p.times) && p.times[i+1] <= start {
					lbs = append(lbs, (bp+p.times[i+1])/2)
				}
			}
			if math.IsInf(start, 1) {
				lbs = append(lbs, start)
			}
			for _, lb := range lbs {
				got := p.clone()
				if s := got.place(lb, n, dur); s != start {
					t.Fatalf("job %d (%d nodes, %v s): place from %v starts at %v, the sweep at %v", v.ID, n, dur, lb, s, start)
				}
				if !slices.Equal(got.times, want.times) || !slices.Equal(got.free, want.free) {
					t.Fatalf("job %d (%d nodes, %v s) placed from %v: profile (%v, %v), sweep and reserve (%v, %v)",
						v.ID, n, dur, lb, got.times, got.free, want.times, want.free)
				}
			}
			if k == 0 {
				p = want
			}
		}
	}
}

func TestPlaceMatchesSweep(t *testing.T) {
	for _, b := range referenceSeeds() {
		checkPlace(t, decodeInvocation(&byteSource{b: b}))
	}
	checkPlace(t, deepQueueInvocation())
}

// TestConservativeSkipsDominatedPrefix pins the work sweepFrom saves,
// which no output shows: after a full pass on deep_queue's shape, the
// breakpoints of the final profile that lie before each job's lower bound
// must be a fair share of those before its start.
func TestConservativeSkipsDominatedPrefix(t *testing.T) {
	inv := deepQueueInvocation()
	c := &Conservative{}
	c.Schedule(inv)
	skipped, before := 0, 0
	for m, r := range c.queue {
		lb := sweepFrom(c.queue[:m], inv.Now, r.nodes, r.wall)
		if lb > r.start {
			t.Fatalf("job %d: lower bound %v past its start %v", r.id, lb, r.start)
		}
		for _, bp := range c.prof.times {
			if bp < lb {
				skipped++
			}
			if bp < r.start {
				before++
			}
		}
	}
	share := float64(skipped) / float64(before)
	t.Logf("%d jobs: %d of %d breakpoints before their starts lie before their lower bounds (%.3f)",
		len(c.queue), skipped, before, share)
	// 0.579 measured (10,284 of 17,766); the lower bound always at Now
	// reads 0.
	if share < 0.45 {
		t.Errorf("the lower bounds skip %.3f of the breakpoints before the starts, want at least 0.45", share)
	}
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

// submitOnly returns n+1 snapshots of the same backlogged machine: the
// first is deepQueueInvocation with the starts of a pass on it applied,
// and each later one adds one more job to the queue, too wide to start.
// Each snapshot is the one before it advanced by a pass's own starts (none),
// so a kept pass on snapshot k serves snapshot k+1 by reserving one job.
func submitOnly(n int) []*Invocation {
	inv := deepQueueInvocation()
	started := map[job.ID]bool{}
	for _, d := range (&Conservative{}).Schedule(inv) {
		started[d.Job] = true
	}
	base := *inv
	base.Pending = nil
	for _, v := range inv.Pending {
		if !started[v.ID] {
			base.Pending = append(base.Pending, v)
			continue
		}
		v.State, v.Nodes, v.StartTime, v.ExpectedEnd = StateRunning, v.ReqNodes, inv.Now, inv.Now+v.WallTime
		base.Running = append(base.Running, v)
		base.FreeNodes -= v.ReqNodes
	}
	queue := base.Pending
	for i := 0; i < n; i++ {
		queue = append(queue, mkPending(1000+i, base.FreeNodes+1, float64(60+i)))
	}
	out := make([]*Invocation, n+1)
	for k := range out {
		snap := base
		snap.Pending = queue[:len(base.Pending)+k]
		out[k] = &snap
	}
	return out
}

func TestConservativeScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	// The O(P·B²) profile made 31 allocations here: slices grown by
	// insertion, a heap-allocated profile and sort.Slice's reflect swapper.
	// The one-pass sweep made 6: the presized profile, the releases and
	// the decisions. A warmed Conservative makes none: every buffer is
	// its own, reused by the next call.
	inv := deepQueueInvocation()
	c := &Conservative{}
	if len(c.Schedule(inv)) == 0 {
		t.Fatal("nothing started, so the next call could reuse the pass")
	}
	if c.extends(inv) >= 0 {
		t.Fatal("a snapshot that still queues the started jobs reuses the pass")
	}
	if got := testing.AllocsPerRun(20, func() { c.Schedule(inv) }); got != 0 {
		t.Errorf("a full pass allocates %v times per call, want 0", got)
	}

	const calls = 20
	seq := submitOnly(calls + 1) // AllocsPerRun makes one warm-up call
	for _, snap := range seq {   // grow every buffer to the last call's size
		c.Schedule(snap)
	}
	c.Schedule(seq[0])
	for k := 1; k < len(seq); k++ {
		if c.extends(seq[k]) < 0 {
			t.Fatalf("submit-only call %d does not reuse the pass", k)
		}
		c.Schedule(seq[k])
	}
	c.Schedule(seq[0])
	k := 0
	if got := testing.AllocsPerRun(calls, func() { k++; c.Schedule(seq[k]) }); got != 0 {
		t.Errorf("a submit-only call allocates %v times per call, want 0", got)
	}
}

// BenchmarkConservativeSchedule times a full pass at deep_queue's shape
// and a call on the same queue that only adds one job to it.
func BenchmarkConservativeSchedule(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		inv := deepQueueInvocation()
		c := &Conservative{}
		if len(c.Schedule(inv)) == 0 {
			b.Fatal("nothing started, so every call after the first would reuse the pass")
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Schedule(inv)
		}
	})
	b.Run("submit", func(b *testing.B) {
		seq := submitOnly(64)
		c := &Conservative{}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := 1 + i%(len(seq)-1)
			if k == 1 { // start the sequence over with an untimed full pass
				b.StopTimer()
				c.Schedule(seq[0])
				b.StartTimer()
			}
			c.Schedule(seq[k])
		}
	})
}

// checkSequence drives a kept Conservative through snapshots decoded from
// data, each the one before it advanced as an engine might advance it (see
// sequence.advance), and after every call compares the kept value with a
// fresh Conservative that scheduled the same snapshot: the decisions, the
// profile, the reservations, and what each expects of the next snapshot.
// It returns how many calls reused the kept pass.
func checkSequence(t *testing.T, data []byte) (reused int) {
	t.Helper()
	s := &byteSource{b: data}
	inv := decodeInvocation(s)
	seq := &sequence{inv: inv, nextID: 1000}
	kept := &Conservative{}
	for call := 1; call <= 48; call++ {
		if kept.extends(inv) >= 0 {
			reused++
		}
		got := kept.Schedule(inv)
		fresh := &Conservative{}
		want := fresh.Schedule(inv)
		if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("call %d at Now=%v: kept pass decided %v, fresh pass %v", call, inv.Now, got, want)
		}
		if msg := diffPass(kept, fresh); msg != "" {
			t.Fatalf("call %d at Now=%v: %s", call, inv.Now, msg)
		}
		if s.i >= len(s.b) {
			break
		}
		seq.advance(s, got)
	}
	return reused
}

// diffPass describes the first difference between two Conservatives' kept
// passes, or returns "".
func diffPass(a, b *Conservative) string {
	switch {
	case !slices.Equal(a.prof.times, b.prof.times) || !slices.Equal(a.prof.free, b.prof.free):
		return fmt.Sprintf("kept profile (%v, %v), fresh (%v, %v)", a.prof.times, a.prof.free, b.prof.times, b.prof.free)
	case !slices.Equal(a.queue, b.queue):
		return fmt.Sprintf("kept reservations %v, fresh %v", a.queue, b.queue)
	case a.now != b.now || a.free != b.free || !slices.Equal(a.rels, b.rels):
		return fmt.Sprintf("kept pass expects Now=%v, %d free, releases %v; fresh Now=%v, %d free, releases %v",
			a.now, a.free, a.rels, b.now, b.free, b.rels)
	}
	return ""
}

// sequence is the snapshot checkSequence advances between calls.
type sequence struct {
	inv    *Invocation
	down   int    // failed nodes, which leave the free count
	nextID job.ID // the ID of the next submitted job
}

// advance applies the starts ds to the snapshot as the engine would, then
// lets the input choose what happens before the next call: the engine
// rejects a start; jobs are submitted; a job completes early or is
// requeued; a free node fails or is repaired; a node under a running job
// fails, which shrinks the job or kills it; or nothing happens. Then Now
// stays, moves a little, passes a release the engine has not processed,
// or jumps to where short walltimes vanish.
func (q *sequence) advance(s *byteSource, ds []Decision) {
	inv := q.inv
	op := s.next()
	sizes := map[job.ID]int{}
	for i, d := range ds {
		if i == 0 && op%8 == 0 {
			continue // the engine rejects the first start
		}
		sizes[d.Job] = d.NumNodes
	}
	var pending []*JobView
	for _, v := range inv.Pending {
		n, ok := sizes[v.ID]
		if !ok {
			pending = append(pending, v)
			continue
		}
		v.State, v.Nodes, v.StartTime, v.ExpectedEnd = StateRunning, n, inv.Now, inv.Now+v.WallTime
		inv.Running = append(inv.Running, v)
		inv.FreeNodes -= n
	}
	inv.Pending = pending

	pick := func() int { return s.next() % len(inv.Running) }
	switch ev := op / 8 % 8; {
	case ev <= 1 || ev == 3 && inv.FreeNodes == 0 || ev == 4 && q.down == 0:
		for i := 0; i <= ev%2; i++ {
			q.submit(s)
		}
	case ev == 2 && len(inv.Running) > 0: // completes early
		i := pick()
		inv.FreeNodes += inv.Running[i].Nodes
		inv.Running = slices.Delete(inv.Running, i, i+1)
	case ev == 3: // a free node fails
		inv.FreeNodes--
		q.down++
		q.submit(s)
	case ev == 4: // a failed node is repaired
		inv.FreeNodes++
		q.down--
		q.submit(s)
	case ev == 5 && len(inv.Running) > 0: // a node under a running job fails
		i := pick()
		q.down++
		if v := inv.Running[i]; v.Nodes > 1 {
			v.Nodes--
		} else {
			inv.FreeNodes += v.Nodes - 1
			inv.Running = slices.Delete(inv.Running, i, i+1)
		}
	case ev == 7 && len(inv.Running) > 0: // a running job is requeued
		i := pick()
		v := inv.Running[i]
		inv.FreeNodes += v.Nodes
		inv.Running = slices.Delete(inv.Running, i, i+1)
		v.State, v.Nodes, v.StartTime, v.ExpectedEnd = StatePending, 0, 0, 0
		inv.Pending = append(inv.Pending, v)
	}

	switch s.next() % 6 {
	case 0, 1: // Now stays
	case 2:
		inv.Now += float64(1 + s.next()%20)
	case 3: // past the earliest release still running
		next := math.Inf(1)
		for _, v := range inv.Running {
			if v.ExpectedEnd > inv.Now {
				next = min(next, v.ExpectedEnd)
			}
		}
		if !math.IsInf(next, 1) {
			inv.Now = next + float64(s.next()%3)
		}
	case 4:
		inv.Now += 100
	case 5:
		inv.Now = max(inv.Now, 1e16)
	}
}

// submit appends one decoded job to the queue.
func (q *sequence) submit(s *byteSource) {
	q.inv.Pending = append(q.inv.Pending, decodePending(s, q.nextID, q.inv.TotalNodes))
	q.nextID++
}

// sequenceSeeds are fixed-seed random inputs for checkSequence.
func sequenceSeeds() [][]byte {
	r := rand.New(rand.NewSource(2))
	seeds := make([][]byte, 600)
	for i := range seeds {
		seeds[i] = make([]byte, 30+r.Intn(200))
		r.Read(seeds[i])
	}
	return seeds
}

// TestConservativeSequence runs checkSequence on the fixed seeds, and
// requires that the kept pass was reused often enough for the comparison
// to mean something.
func TestConservativeSequence(t *testing.T) {
	calls, reused := 0, 0
	for _, b := range sequenceSeeds() {
		reused += checkSequence(t, b)
		calls++
	}
	if reused < calls {
		t.Errorf("the kept pass served %d calls over %d sequences", reused, calls)
	}
	t.Logf("the kept pass served %d calls over %d sequences", reused, calls)
}

func FuzzConservativeSequence(f *testing.F) {
	for _, b := range sequenceSeeds()[:20] {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkSequence(t, data) })
}
