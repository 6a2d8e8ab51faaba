package sched

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/job"
)

// refShadowTime is the original shadowTime, kept verbatim as a test
// oracle: it clones and stable-sorts the whole running list by
// ExpectedEnd on every call. shadowTime must return the same answer.
func refShadowTime(now float64, running []*JobView, free, need int) (shadow float64, extra int) {
	if need <= free {
		return now, free - need
	}
	// Sort running jobs by expected end and accumulate releases.
	ends := slices.Clone(running)
	slices.SortStableFunc(ends, compareBy(func(a, b *JobView) bool { return a.ExpectedEnd < b.ExpectedEnd }))
	avail := free
	for _, v := range ends {
		if math.IsInf(v.ExpectedEnd, 1) {
			break
		}
		avail += v.Nodes
		if avail >= need {
			return v.ExpectedEnd, avail - need
		}
	}
	return math.Inf(1), avail - need // never: backfill gated only by "extra"
}

// wallTimeOrInf is the walltime JobView.WallTimeOrInf read off the job
// before views carried it: the limit, or +Inf if absent.
func wallTimeOrInf(j *job.Job) float64 {
	if j.WallTimeLimit <= 0 {
		return math.Inf(1)
	}
	return j.WallTimeLimit
}

// SizePolicy is the enum the algorithms sized jobs by before the three
// SizeFuncs replaced it, kept verbatim for refStartSize.
type SizePolicy int

// Size policies.
const (
	// SizeRequested starts the job at its preferred size (NumNodes, or
	// the minimum if unset), the conservative choice.
	SizeRequested SizePolicy = iota
	// SizeMax starts the job as large as currently fits (up to its max).
	SizeMax
	// SizeMin starts the job at its minimum size.
	SizeMin
)

// sizeFuncs are the SizeFuncs that replaced each SizePolicy.
var sizeFuncs = [...]SizeFunc{SizeRequested: RequestedSize, SizeMax: MaxSize, SizeMin: MinSize}

// refStartSize is StartSize, the policy dispatch RequestedSize, MinSize
// and MaxSize replaced, as it was before views carried the job's bounds,
// kept verbatim (but for its signature) so that refBackfill reads every
// bound off the job itself.
func refStartSize(j *job.Job, free int, policy SizePolicy) int {
	if j.Type == job.Rigid {
		if j.NumNodes <= free {
			return j.NumNodes
		}
		return 0
	}
	minN, maxN := j.MinNodes(), j.MaxNodes()
	if minN > free {
		return 0
	}
	var want int
	switch policy {
	case SizeMax:
		want = maxN
	case SizeMin:
		want = minN
	default:
		want = j.NumNodes
		if want == 0 {
			want = minN
		}
	}
	if want > maxN {
		want = maxN
	}
	if want < minN {
		want = minN
	}
	if want > free {
		want = free // still >= minN, checked above
	}
	return want
}

// refBackfill is the backfill loop EASY, FairShare and Adaptive each
// carried before they shared backfill, kept verbatim as its oracle: it
// computes the shadow time up front and sizes every candidate, free nodes
// or not. The bounds and walltimes it reads come from the jobs, not from
// the views' copies.
func refBackfill(out []Decision, now float64, cands, running []*JobView, free, need int, fn SizeFunc, policy SizePolicy) ([]Decision, int) {
	shadow, extra := refShadowTime(now, running, free, need)
	for _, v := range cands {
		var n int
		if fn != nil {
			n = fn(v, free)
		} else {
			n = refStartSize(v.Job, free, policy)
		}
		if n == 0 {
			continue
		}
		endsBeforeShadow := now+wallTimeOrInf(v.Job) <= shadow
		fitsExtra := n <= extra
		if !endsBeforeShadow && !fitsExtra {
			continue
		}
		out = append(out, Start(v.ID, n))
		free -= n
		if fitsExtra && !endsBeforeShadow {
			extra -= n
		}
	}
	return out, free
}

// decodeSizer draws backfill's SizeFunc: none (policy's SizeFunc sizes),
// an EfficiencySizer, or a sizer that keeps the SizeFunc contract but
// otherwise answers at random — any size in the job's bounds that fits
// free, or 0 — as a hash of the job, free and a drawn salt. Both sizers
// read the bounds off the job, not off the view.
func decodeSizer(s *byteSource) SizeFunc {
	switch k := s.next(); k % 3 {
	case 1:
		return EfficiencySizer(sizerRef, float64(1+k%10)/10)
	case 2:
		salt := uint64(s.next())
		return func(v *JobView, free int) int {
			lo, hi := v.Job.MinNodes(), min(v.Job.MaxNodes(), free)
			if lo > hi {
				return 0
			}
			h := uint64(v.ID+1)*0x9e3779b97f4a7c15 ^ uint64(free+1)*0xbf58476d1ce4e5b9 ^ (salt+1)*0x94d049bb133111eb
			h ^= h >> 31
			if h%5 == 0 {
				return 0
			}
			return lo + int(h%uint64(hi-lo+1))
		}
	}
	return nil
}

// decodeCandidates retargets some backfill candidates at the edges of
// backfill's skip tests, given the shadow time and extra nodes of the pass:
// a walltime that ends exactly at the shadow time (the <= tie), or a
// malleable minimum just above free, just above extra, or equal to extra.
func decodeCandidates(s *byteSource, inv *Invocation, shadow float64, extra int) {
	for _, v := range inv.Pending {
		j := v.Job
		switch k := s.next(); k % 6 {
		case 1:
			if wall := shadow - inv.Now; wall > 0 && inv.Now+wall == shadow {
				j.WallTimeLimit = wall
			}
		case 2, 3, 4:
			lo := inv.FreeNodes + 1
			if k%6 == 3 {
				lo = extra + 1
			} else if k%6 == 4 {
				lo = extra
			}
			if lo >= 1 {
				j.Type = job.Malleable
				j.NumNodesMin = lo
				j.NumNodesMax = lo + k%5
				j.NumNodes = lo + k%3
			}
		}
		syncView(v)
	}
}

// decodeRunning builds a running list that leans on shadowTime's edge
// cases: ties in ExpectedEnd, +Inf ends, ends before now, zero-node
// entries, and planned-shrink copies standing in for some views (as
// Adaptive hands shadowTime after planning shrinks).
func decodeRunning(s *byteSource, now float64) []*JobView {
	var running []*JobView
	for i, n := 0, s.next()%16; i < n; i++ {
		v := mkRunning(i, s.next()%9, now-1, 0)
		switch k := s.next(); k % 5 {
		case 0:
			v.ExpectedEnd = math.Inf(1)
		case 1:
			v.ExpectedEnd = now - float64(k%3)
		default:
			v.ExpectedEnd = now + 10*float64(k%4)
		}
		running = append(running, v)
	}
	planned := map[*JobView]*JobView{}
	for _, v := range running {
		if k := s.next(); k%4 == 0 && v.Nodes > 0 {
			c := *v
			c.Nodes = k % v.Nodes
			planned[v] = &c
		}
	}
	return withPlanned(running, planned)
}

// checkShadowTime compares shadowTime with refShadowTime on a running list
// and (free, need) decoded from data — need ranging past free + Σnodes —
// then backfill with refBackfill on an invocation decoded from the rest.
func checkShadowTime(t *testing.T, data []byte) {
	t.Helper()
	s := &byteSource{b: data}
	now := []float64{0, 100, 1e6}[s.next()%3]
	running := decodeRunning(s, now)
	free := s.next() % 16
	total := free
	for _, v := range running {
		total += v.Nodes
	}
	need := s.next() % (total + 8)
	gs, ge := shadowTime(now, running, free, need)
	ws, we := refShadowTime(now, running, free, need)
	if gs != ws || ge != we {
		t.Fatalf("shadowTime(now %v, free %d, need %d) = (%v, %d), reference (%v, %d)", now, free, need, gs, ge, ws, we)
	}

	inv := decodeInvocation(s)
	policy := SizePolicy(s.next() % 3)
	inv.Running = decodeRunning(s, inv.Now)
	need = s.next() % (inv.TotalNodes + 4)
	fn := decodeSizer(s)
	shadow, extra := refShadowTime(inv.Now, inv.Running, inv.FreeNodes, need)
	decodeCandidates(s, inv, shadow, extra)
	size := fn
	if size == nil {
		size = sizeFuncs[policy]
	}
	got, gotFree := backfill(nil, inv.Now, inv.Pending, inv.Running, inv.FreeNodes, need, size)
	want, wantFree := refBackfill(nil, inv.Now, inv.Pending, inv.Running, inv.FreeNodes, need, fn, policy)
	if !reflect.DeepEqual(got, want) || gotFree != wantFree {
		t.Fatalf("backfill = %v (free %d), reference %v (free %d)", got, gotFree, want, wantFree)
	}
}

// shadowRows are hand-written inputs for the edge cases above; the byte
// layout is checkShadowTime's.
var shadowRows = [][]byte{
	{},           // empty running list, need 0
	{0, 0, 3, 5}, // empty running list, need > free
	{1, 4, 2, 2, 3, 2, 4, 2, 5, 2, 1, 1, 1, 1, 1, 20},       // ties in ExpectedEnd
	{0, 3, 4, 0, 4, 0, 4, 0, 1, 1, 1, 0, 30},                // all +Inf, need > free + Σnodes
	{2, 5, 8, 3, 8, 3, 8, 8, 2, 4, 2, 0, 0, 4, 0, 0, 2, 25}, // planned copies, ends before now
	// Running jobs without walltimes hold the nodes the head needs:
	// the shadow time is +Inf (a 2-node release at 120, a 6-node job
	// without an end, 4 free, need 10), so backfill starts every
	// candidate that fits the free nodes, whatever its walltime.
	{0, 2, 2, 2, 6, 0, 1, 1, 4, 10,
		1, 15, 4, 0, 3, 0, 1, 1, 3, 2, 1, 3, 1, 1, 0,
		2, 2, 2, 6, 0, 1, 1, 10},
	// Walltimes that end exactly at the shadow time: the head needs
	// all 16 nodes at 130, leaving no extra. Two 40 s candidates retimed
	// to end at 130 (the <= tie) start; a 1-node one without a
	// walltime between them is skipped on its minimum. Then the same
	// with the random sizer, and with the efficiency sizer.
	{0, 0, 0, 0,
		1, 15, 4, 0, 3, 3, 1, 1, 0, 0, 1, 3, 1, 1, 0,
		2, 4, 2, 8, 3, 1, 1, 16, 0, 1, 0, 1},
	{0, 0, 0, 0,
		1, 15, 4, 0, 3, 3, 1, 1, 0, 0, 1, 3, 1, 1, 0,
		2, 4, 2, 8, 3, 1, 1, 16, 2, 5, 1, 0, 1},
	{0, 0, 0, 0,
		1, 15, 4, 0, 3, 3, 1, 1, 0, 0, 1, 3, 1, 1, 0,
		2, 4, 2, 8, 3, 1, 1, 16, 4, 1, 0, 1},
	// Malleable minimums at the skip tests' edges, need 14 at 130
	// leaving 2 extra of 4 free: a minimum equal to extra (sized, then
	// turned down: its request of 3 is past extra), one just above extra
	// (skipped), one just above free (skipped).
	{0, 0, 0, 0,
		1, 15, 4, 0, 3, 3, 1, 1, 0, 0, 1, 3, 1, 1, 0,
		2, 4, 2, 8, 3, 1, 1, 14, 0, 4, 3, 2},
}

// shadowSeeds are shadowRows plus a fixed-seed random batch.
func shadowSeeds() [][]byte {
	seeds := slices.Clone(shadowRows)
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, 20+r.Intn(100))
		r.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

func TestShadowTimeMatchesReference(t *testing.T) {
	// Running jobs without walltimes hold the nodes the head needs: the
	// shadow time is +Inf, so every candidate that fits the free nodes
	// ends by it, whatever its walltime, and only free gates backfill.
	running := []*JobView{mkRunning(0, 2, 0, 120), mkRunning(1, 6, 0, math.Inf(1))}
	if s, e := shadowTime(100, running, 4, 10); !math.IsInf(s, 1) || e != -4 {
		t.Errorf("shadowTime = (%v, %d), want (+Inf, -4)", s, e)
	}
	cands := []*JobView{mkPending(2, 2, 0), mkPending(3, 3, 40), mkPending(4, 2, 40)}
	got, free := backfill(nil, 100, cands, running, 4, 10, RequestedSize)
	if want := []Decision{Start(2, 2), Start(4, 2)}; !reflect.DeepEqual(got, want) || free != 0 {
		t.Errorf("backfill = %v (free %d), want %v (free 0)", got, free, want)
	}

	for _, b := range shadowSeeds() {
		checkShadowTime(t, b)
	}

	// Running lists around the size shadowTime keeps on the stack, with
	// many tied ends.
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{shadowReleases - 1, shadowReleases, shadowReleases + 1, 3 * shadowReleases} {
		running := make([]*JobView, n)
		total := 0
		for i := range running {
			running[i] = mkRunning(i, 1+r.Intn(4), 0, float64(r.Intn(50)))
			if r.Intn(10) == 0 {
				running[i].ExpectedEnd = math.Inf(1)
			}
			total += running[i].Nodes
		}
		for _, need := range []int{total / 3, total / 2, total, total + 1} {
			gs, ge := shadowTime(0, running, 3, need)
			ws, we := refShadowTime(0, running, 3, need)
			if gs != ws || ge != we {
				t.Fatalf("%d running, need %d: shadowTime = (%v, %d), reference (%v, %d)", n, need, gs, ge, ws, we)
			}
		}
	}
}

func FuzzShadowTime(f *testing.F) {
	for _, b := range shadowSeeds()[:len(shadowRows)+20] {
		f.Add(b)
	}
	f.Fuzz(checkShadowTime)
}

// BenchmarkShadowTime is one shadow-time query at failures_shrink's shape:
// 400 running jobs on 1024 nodes, nearly all with walltimes, and a head
// that needs a tenth of the machine with four nodes free.
func BenchmarkShadowTime(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	var running []*JobView
	for i := 0; i < 400; i++ {
		end := 1000 + float64(r.Intn(7200))
		if r.Intn(20) == 0 {
			end = math.Inf(1)
		}
		running = append(running, mkRunning(i, 1+r.Intn(4), 900, end))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shadowTime(1000, running, 4, 102)
	}
}

// failuresShrinkInvocation is an Adaptive invocation at failures_shrink's
// shape: 180 jobs running, half of them malleable (a fifth of those at a
// scheduling point), 1,600 queued behind a head wider than the free nodes
// plus everything shrinking could reclaim, and free nodes from 1 to 16.
func failuresShrinkInvocation(r *rand.Rand) *Invocation {
	inv := &Invocation{Now: 1000, FreeNodes: 1 + r.Intn(16)}
	reclaimable := 0
	for i := 0; i < 180; i++ {
		n := 1 + r.Intn(8)
		var v *JobView
		if i%2 == 0 {
			v = mkRunning(i, n, 900, inv.Now+float64(1+r.Intn(7200)))
			if r.Intn(20) == 0 {
				v.ExpectedEnd = math.Inf(1)
			}
		} else {
			v = mkMalleable(i, n, 1+r.Intn(n), n+r.Intn(16), r.Intn(5) == 0)
			v.ExpectedEnd = inv.Now + float64(1+r.Intn(7200))
			if v.AtSchedulingPoint {
				reclaimable += n - v.MinNodes
			}
		}
		inv.Running = append(inv.Running, v)
		inv.TotalNodes += n
	}
	inv.TotalNodes += inv.FreeNodes
	inv.Pending = append(inv.Pending, mkPending(1000, inv.FreeNodes+reclaimable+1, 3600))
	for i := 1; i < 1600; i++ {
		v := mkPending(1000+i, 1+r.Intn(32), float64(60*(1+r.Intn(120))))
		if r.Intn(2) == 0 {
			v.Job.Type = job.Malleable
			v.Job.NumNodesMin = 1 + r.Intn(8)
			v.Job.NumNodesMax = v.Job.NumNodesMin + r.Intn(32)
			syncView(v)
		}
		inv.Pending = append(inv.Pending, v)
	}
	return inv
}

// decisionSink keeps appendDecisions' slice on the heap, as Schedule's is.
var decisionSink []Decision

// appendDecisions grows a slice to ds by append, as Schedule grows its
// result: the allocations an algorithm cannot avoid.
func appendDecisions(ds []Decision) {
	var out []Decision
	for _, d := range ds {
		out = append(out, d)
	}
	decisionSink = out
}

// TestAdaptiveScheduleAllocs pins one Adaptive pass at failures_shrink's
// shape — a blocked head and a deep queue backfilled behind it — at the
// allocations of its returned decisions and nothing else: no shadow-time
// heap, no resizable list. The same invocation with the head alone queued
// leaves nodes for Adaptive to expand malleable jobs into, which must not
// allocate either.
func TestAdaptiveScheduleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations")
	}
	r := rand.New(rand.NewSource(5))
	a := &Adaptive{}
	check := func(inv *Invocation, kind DecisionKind) {
		t.Helper()
		ds := a.Schedule(inv)
		if len(decisionsByKind(ds, kind)) == 0 {
			t.Fatalf("free %d, %d queued: %v, want a %v", inv.FreeNodes, len(inv.Pending), ds, kind)
		}
		got := testing.AllocsPerRun(20, func() { a.Schedule(inv) })
		want := testing.AllocsPerRun(20, func() { appendDecisions(ds) })
		if got != want {
			t.Errorf("free %d, %d queued: Schedule allocates %v times per call, its %d decisions %v", inv.FreeNodes, len(inv.Pending), got, len(ds), want)
		}
	}
	for i := 0; i < 8; i++ {
		inv := failuresShrinkInvocation(r)
		check(inv, DecisionStart)
		inv.Pending = inv.Pending[:1]
		check(inv, DecisionResize)
	}
}
