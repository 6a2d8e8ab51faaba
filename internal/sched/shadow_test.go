package sched

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
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

// refBackfill is the backfill loop EASY, FairShare and Adaptive each
// carried before they shared backfill, kept verbatim as its oracle: it
// computes the shadow time up front and tries every candidate, free nodes
// or not.
func refBackfill(out []Decision, now float64, cands, running []*JobView, free, need int, fn SizeFunc, policy SizePolicy) ([]Decision, int) {
	shadow, extra := refShadowTime(now, running, free, need)
	for _, v := range cands {
		n := pickSize(v, free, fn, policy)
		if n == 0 {
			continue
		}
		endsBeforeShadow := now+v.WallTimeOrInf() <= shadow
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

	inv, sizing := decodeInvocation(s)
	inv.Running = decodeRunning(s, inv.Now)
	need = s.next() % (inv.TotalNodes + 4)
	got, gotFree := backfill(nil, inv.Now, inv.Pending, inv.Running, inv.FreeNodes, need, nil, sizing)
	want, wantFree := refBackfill(nil, inv.Now, inv.Pending, inv.Running, inv.FreeNodes, need, nil, sizing)
	if !reflect.DeepEqual(got, want) || gotFree != wantFree {
		t.Fatalf("backfill = %v (free %d), reference %v (free %d)", got, gotFree, want, wantFree)
	}
}

// shadowSeeds are hand-written inputs for the edge cases above (the byte
// layout is checkShadowTime's) plus a fixed-seed random batch.
func shadowSeeds() [][]byte {
	seeds := [][]byte{
		{},           // empty running list, need 0
		{0, 0, 3, 5}, // empty running list, need > free
		{1, 4, 2, 2, 3, 2, 4, 2, 5, 2, 1, 1, 1, 1, 1, 20},       // ties in ExpectedEnd
		{0, 3, 4, 0, 4, 0, 4, 0, 1, 1, 1, 0, 30},                // all +Inf, need > free + Σnodes
		{2, 5, 8, 3, 8, 3, 8, 8, 2, 4, 2, 0, 0, 4, 0, 0, 2, 25}, // planned copies, ends before now
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, 20+r.Intn(100))
		r.Read(b)
		seeds = append(seeds, b)
	}
	return seeds
}

func TestShadowTimeMatchesReference(t *testing.T) {
	for _, b := range shadowSeeds() {
		checkShadowTime(t, b)
	}
}

func FuzzShadowTime(f *testing.F) {
	for _, b := range shadowSeeds()[:20] {
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
