package fluid

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/des"
)

const tol = 1e-6

// drain fires every queued event.
func drain(k *des.Kernel) { k.Advance(des.Infinity, math.MaxInt) }

func almost(a, b float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1)
}

func TestSingleActivityDuration(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	cpu := p.NewResource("cpu", 100) // 100 flops/s
	var done des.Time
	a := NewActivity("compute", 500, func() { done = k.Now() })
	a.AddUsage(cpu, 1)
	p.Start(a)
	drain(k)
	if !almost(float64(done), 5) {
		t.Errorf("completed at %v, want 5s", done)
	}
}

func TestFairShareTwoActivities(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	link := p.NewResource("link", 10)
	var t1, t2 des.Time
	a := NewActivity("a", 10, func() { t1 = k.Now() })
	a.AddUsage(link, 1)
	b := NewActivity("b", 20, func() { t2 = k.Now() })
	b.AddUsage(link, 1)
	p.Start(a)
	p.Start(b)
	// Processor sharing: both at rate 5 until t=2 (a done), then b alone at
	// 10 with 10 remaining -> done at t=3.
	if got := a.rate; !almost(got, 5) {
		t.Errorf("a rate %v, want 5", got)
	}
	drain(k)
	if !almost(float64(t1), 2) {
		t.Errorf("a done at %v, want 2", t1)
	}
	if !almost(float64(t2), 3) {
		t.Errorf("b done at %v, want 3", t2)
	}
}

func TestWeightedUsage(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	res := p.NewResource("r", 10)
	var done des.Time
	// Weight 2: consumes 2 units of capacity per unit of progress.
	a := NewActivity("a", 10, func() { done = k.Now() })
	a.AddUsage(res, 2)
	p.Start(a)
	drain(k)
	if !almost(float64(done), 2) {
		t.Errorf("done at %v, want 2 (rate 5)", done)
	}
}

// The classic three-activity bottleneck example from max-min fairness texts:
// A uses r1 only, B uses r1 and r2, C uses r2 only, cap(r1)=1, cap(r2)=10.
// Max-min gives A=B=0.5 and C=9.5; equal split gives C=5.
func TestMaxMinBottleneck(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	r1 := p.NewResource("r1", 1)
	r2 := p.NewResource("r2", 10)
	a := NewActivity("a", 1e9, nil)
	a.AddUsage(r1, 1)
	b := NewActivity("b", 1e9, nil)
	b.AddUsage(r1, 1)
	b.AddUsage(r2, 1)
	c := NewActivity("c", 1e9, nil)
	c.AddUsage(r2, 1)
	p.Start(a)
	p.Start(b)
	p.Start(c)
	if !almost(a.rate, 0.5) {
		t.Errorf("A rate %v, want 0.5", a.rate)
	}
	if !almost(b.rate, 0.5) {
		t.Errorf("B rate %v, want 0.5", b.rate)
	}
	if !almost(c.rate, 9.5) {
		t.Errorf("C rate %v, want 9.5", c.rate)
	}
}

func TestEqualSplitAblation(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	p.SetFairness(EqualSplit)
	r1 := p.NewResource("r1", 1)
	r2 := p.NewResource("r2", 10)
	a := NewActivity("a", 1e9, nil)
	a.AddUsage(r1, 1)
	b := NewActivity("b", 1e9, nil)
	b.AddUsage(r1, 1)
	b.AddUsage(r2, 1)
	c := NewActivity("c", 1e9, nil)
	c.AddUsage(r2, 1)
	p.Start(a)
	p.Start(b)
	p.Start(c)
	if !almost(c.rate, 5) {
		t.Errorf("C rate %v, want 5 under equal split", c.rate)
	}
	if !almost(b.rate, 0.5) {
		t.Errorf("B rate %v, want 0.5 under equal split", b.rate)
	}
}

func TestCancelFreesCapacity(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	res := p.NewResource("r", 10)
	var done des.Time
	a := NewActivity("a", 100, func() { done = k.Now() })
	a.AddUsage(res, 1)
	b := NewActivity("b", 100, nil)
	b.AddUsage(res, 1)
	p.Start(a)
	p.Start(b)
	// At t=1 cancel b; a then runs at full rate.
	k.Schedule(1, des.PriorityDefault, func() { p.Cancel(b) })
	drain(k)
	// a does 5 units in [0,1], then 95 at rate 10 -> 9.5s more.
	if !almost(float64(done), 10.5) {
		t.Errorf("a done at %v, want 10.5", done)
	}
	if b.Active() {
		t.Error("cancelled activity still active")
	}
}

func TestZeroWorkCompletesImmediately(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	res := p.NewResource("r", 10)
	fired := false
	k.Schedule(3, des.PriorityDefault, func() {
		a := NewActivity("zero", 0, func() {
			fired = true
			if k.Now() != 3 {
				t.Errorf("zero-work completion at %v, want 3", k.Now())
			}
		})
		a.AddUsage(res, 1)
		p.Start(a)
	})
	drain(k)
	if !fired {
		t.Error("zero-work activity never completed")
	}
}

func TestCompletionChain(t *testing.T) {
	// onComplete starting follow-up activities models sequential tasks.
	k := des.NewKernel()
	p := NewPool(k)
	res := p.NewResource("r", 1)
	var finished des.Time
	second := NewActivity("second", 2, func() { finished = k.Now() })
	second.AddUsage(res, 1)
	first := NewActivity("first", 3, func() { p.Start(second) })
	first.AddUsage(res, 1)
	p.Start(first)
	drain(k)
	if !almost(float64(finished), 5) {
		t.Errorf("chain finished at %v, want 5", finished)
	}
}

func TestManyActivitiesShareEvenly(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	res := p.NewResource("pfs", 100)
	const n = 20
	var doneCount int
	for i := 0; i < n; i++ {
		a := NewActivity("io", 50, func() { doneCount++ })
		a.AddUsage(res, 1)
		p.Start(a)
	}
	for _, a := range p.active {
		if !almost(a.rate, 100.0/n) {
			t.Fatalf("rate %v, want %v", a.rate, 100.0/n)
		}
	}
	drain(k)
	if doneCount != n {
		t.Errorf("%d completions, want %d", doneCount, n)
	}
	// All finish together: n*50 units at 100/s total = 10s.
	if !almost(float64(k.Now()), 10) {
		t.Errorf("finished at %v, want 10", k.Now())
	}
}

func TestStaggeredArrivalsProcessorSharing(t *testing.T) {
	// Second activity arrives halfway through the first. Validates lazy
	// progress accounting across recomputations.
	k := des.NewKernel()
	p := NewPool(k)
	res := p.NewResource("r", 2)
	var t1, t2 des.Time
	a := NewActivity("a", 8, func() { t1 = k.Now() })
	a.AddUsage(res, 1)
	p.Start(a)
	k.Schedule(2, des.PriorityDefault, func() {
		b := NewActivity("b", 2, func() { t2 = k.Now() })
		b.AddUsage(res, 1)
		p.Start(b)
	})
	drain(k)
	// a: 4 units in [0,2] at rate 2, then shares at rate 1.
	// b: 2 units at rate 1 -> done at t=4. a: 4 left at t=2, 2 done by t=4,
	// 2 left, alone at rate 2 -> done at t=5.
	if !almost(float64(t2), 4) {
		t.Errorf("b done at %v, want 4", t2)
	}
	if !almost(float64(t1), 5) {
		t.Errorf("a done at %v, want 5", t1)
	}
}

func TestStartTwicePanics(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	res := p.NewResource("r", 1)
	a := NewActivity("a", 1, nil)
	a.AddUsage(res, 1)
	p.Start(a)
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	p.Start(a)
}

func TestNoUsagesPanics(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	a := NewActivity("a", 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("Start without usages did not panic")
		}
	}()
	p.Start(a)
}

func TestInvalidWorkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative work did not panic")
		}
	}()
	NewActivity("bad", -1, nil)
}

// Property: for random activity sets, the max-min solution never
// oversubscribes a resource and gives every activity a positive rate.
func TestMaxMinFeasibilityProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := des.NewRNG(seed)
		k := des.NewKernel()
		p := NewPool(k)
		nRes := 1 + rng.Intn(5)
		resources := make([]*Resource, nRes)
		for i := range resources {
			resources[i] = p.NewResource("r", rng.Range(1, 100))
		}
		nAct := 1 + rng.Intn(10)
		acts := make([]*Activity, nAct)
		for i := range acts {
			a := NewActivity("a", rng.Range(1, 100), nil)
			used := map[int]bool{}
			for j := 0; j <= rng.Intn(nRes); j++ {
				ri := rng.Intn(nRes)
				if used[ri] {
					continue
				}
				used[ri] = true
				a.AddUsage(resources[ri], rng.Range(0.1, 3))
			}
			if len(used) == 0 {
				a.AddUsage(resources[0], 1)
			}
			acts[i] = a
			p.Start(a)
		}
		// Check feasibility.
		load := make(map[*Resource]float64)
		for _, a := range acts {
			if a.rate <= 0 {
				return false
			}
			for _, u := range a.usages {
				load[u.res] += u.weight * a.rate
			}
		}
		for r, l := range load {
			if l > r.capacity*(1+1e-6) {
				return false
			}
		}
		// Max-min optimality (weak check): every activity is bottlenecked,
		// i.e. uses at least one resource that is (nearly) saturated.
		for _, a := range acts {
			bottlenecked := false
			for _, u := range a.usages {
				if load[u.res] >= u.res.capacity*(1-1e-6) {
					bottlenecked = true
					break
				}
			}
			if !bottlenecked {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: total work conservation — the sum of work completed equals the
// sum of work submitted, and all activities eventually complete.
func TestWorkConservationProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := des.NewRNG(seed)
		k := des.NewKernel()
		p := NewPool(k)
		res := p.NewResource("r", rng.Range(1, 10))
		n := 1 + rng.Intn(20)
		completed := 0
		for i := 0; i < n; i++ {
			a := NewActivity("a", rng.Range(0.1, 50), func() { completed++ })
			a.AddUsage(res, rng.Range(0.5, 2))
			delay := des.Time(rng.Range(0, 10))
			aa := a
			k.Schedule(delay, des.PriorityDefault, func() { p.Start(aa) })
		}
		drain(k)
		return completed == n && p.live == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolverRecompute(b *testing.B) {
	k := des.NewKernel()
	p := NewPool(k)
	resources := make([]*Resource, 64)
	for i := range resources {
		resources[i] = p.NewResource("r", 100)
	}
	rng := des.NewRNG(1)
	for i := 0; i < 200; i++ {
		a := NewActivity("a", 1e12, nil)
		a.AddUsage(resources[rng.Intn(64)], 1)
		a.AddUsage(resources[rng.Intn(64)], 0.5)
		p.Start(a)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.solveAll()
	}
}

func TestMaxRateAlone(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	res := p.NewResource("r", 100)
	var done des.Time
	a := NewActivity("capped", 50, func() { done = k.Now() })
	a.AddUsage(res, 1)
	a.SetMaxRate(10)
	p.Start(a)
	if !almost(a.rate, 10) {
		t.Errorf("rate %v, want 10 (capped)", a.rate)
	}
	drain(k)
	if !almost(float64(done), 5) {
		t.Errorf("done at %v, want 5", done)
	}
}

func TestMaxRateFreesCapacityForOthers(t *testing.T) {
	// A capped activity must not hold back an uncapped one: max-min gives
	// the capped one its cap and the rest to the other (this is exactly
	// the "narrow reader behind its private link" scenario).
	k := des.NewKernel()
	p := NewPool(k)
	res := p.NewResource("pfs", 80)
	a := NewActivity("narrow", 1e9, nil)
	a.AddUsage(res, 1)
	a.SetMaxRate(10)
	b := NewActivity("wide", 1e9, nil)
	b.AddUsage(res, 1)
	p.Start(a)
	p.Start(b)
	if !almost(a.rate, 10) {
		t.Errorf("narrow rate %v, want 10", a.rate)
	}
	if !almost(b.rate, 70) {
		t.Errorf("wide rate %v, want 70", b.rate)
	}
}

func TestMaxRateAboveBottleneckIsInert(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	res := p.NewResource("r", 10)
	a := NewActivity("a", 1e9, nil)
	a.AddUsage(res, 1)
	a.SetMaxRate(1000)
	b := NewActivity("b", 1e9, nil)
	b.AddUsage(res, 1)
	p.Start(a)
	p.Start(b)
	if !almost(a.rate, 5) || !almost(b.rate, 5) {
		t.Errorf("rates %v/%v, want 5/5", a.rate, b.rate)
	}
}

func TestMaxRateEqualSplit(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	p.SetFairness(EqualSplit)
	res := p.NewResource("r", 100)
	a := NewActivity("a", 1e9, nil)
	a.AddUsage(res, 1)
	a.SetMaxRate(10)
	b := NewActivity("b", 1e9, nil)
	b.AddUsage(res, 1)
	p.Start(a)
	p.Start(b)
	if !almost(a.rate, 10) {
		t.Errorf("capped equal-split rate %v, want 10", a.rate)
	}
	if !almost(b.rate, 50) {
		t.Errorf("uncapped equal-split rate %v, want 50", b.rate)
	}
}

func TestSetMaxRateValidation(t *testing.T) {
	a := NewActivity("a", 1, nil)
	defer func() {
		if recover() == nil {
			t.Error("non-positive max rate accepted")
		}
	}()
	a.SetMaxRate(0)
}

func TestAccessors(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	r := p.NewResource("disk", 42)
	if r.Name() != "disk" || r.capacity != 42 {
		t.Errorf("resource accessors: %q %v", r.Name(), r.capacity)
	}
	a := NewActivity("job.read", 10, nil)
	a.AddUsage(r, 1)
	if a.Name() != "job.read" || a.remaining != 10 {
		t.Errorf("activity accessors: %q %v", a.Name(), a.remaining)
	}
	p.Start(a)
	if p.Solves() == 0 {
		t.Error("no solves counted")
	}
	if MaxMin.String() != "max-min" || EqualSplit.String() != "equal-split" {
		t.Errorf("fairness strings: %q %q", MaxMin.String(), EqualSplit.String())
	}
	if Fairness(9).String() == "" {
		t.Error("unknown fairness stringer empty")
	}
}

func TestAddUsageValidation(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	r := p.NewResource("r", 1)
	a := NewActivity("a", 1, nil)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("zero weight", func() { a.AddUsage(r, 0) })
	mustPanic("bad capacity", func() { p.NewResource("x", 0) })
	b := NewActivity("b", 1, nil)
	b.AddUsage(r, 1)
	p.Start(b)
	mustPanic("AddUsage after Start", func() { b.AddUsage(r, 1) })
	mustPanic("SetMaxRate after Start", func() { b.SetMaxRate(1) })
}

func TestCancelInactiveIsNoop(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	r := p.NewResource("r", 1)
	a := NewActivity("a", 1, nil)
	a.AddUsage(r, 1)
	p.Cancel(a) // never started: no-op
	if a.Active() {
		t.Error("inactive activity reports active")
	}
}

// TestOneEventPerComponent pins the scheduling shape: however many
// activities a component holds, exactly one completion event is queued for
// it — so N activities on one shared resource leave one pending event, and
// N activities on private resources (N components) leave N.
func TestOneEventPerComponent(t *testing.T) {
	const n = 16
	for _, shared := range []bool{true, false} {
		k := des.NewKernel()
		p := NewPool(k)
		global := p.NewResource("global", n)
		for i := 0; i < n; i++ {
			a := NewActivity("a", float64(100+i), nil)
			if shared {
				a.AddUsage(global, 1)
			} else {
				a.AddUsage(p.NewResource("private", 1), 1)
			}
			p.Start(a)
		}
		want := n
		if shared {
			want = 1
		}
		if got := k.Pending(); got != want {
			t.Errorf("shared=%v: %d pending events, want %d", shared, got, want)
		}
		drain(k)
		if p.live != 0 {
			t.Errorf("shared=%v: %d activities never completed", shared, p.live)
		}
	}
}

// TestCompletionTieOrder pins the interleaving the reserved sequence
// numbers preserve: two activities and a raw PriorityActivity timer all
// due at the same instant fire in the order they were started or
// scheduled — even when the second activity, sharing a component with
// the first, is only armed after the first fires (and after the timer was
// scheduled). Each activity is bound by a private unit-capacity resource
// and linked to the other by an unsaturated one, so the first completion
// leaves the second's rate, and hence its key, unchanged.
func TestCompletionTieOrder(t *testing.T) {
	for _, order := range []string{"A timer B", "A B timer"} {
		k := des.NewKernel()
		p := NewPool(k)
		link := p.NewResource("link", 10)
		var got []string
		start := func(name string) {
			a := NewActivity(name, 2, func() { got = append(got, name) })
			a.AddUsage(p.NewResource(name, 1), 1)
			a.AddUsage(link, 1)
			p.Start(a)
		}
		for _, step := range strings.Fields(order) {
			if step == "timer" {
				k.Schedule(2, des.PriorityActivity, func() { got = append(got, "timer") })
			} else {
				start(step)
			}
		}
		if k.Pending() != 2 {
			t.Fatalf("%s: %d pending events, want 2 (one component event plus the timer)", order, k.Pending())
		}
		drain(k)
		if strings.Join(got, " ") != order {
			t.Errorf("fire order %q, want %q", strings.Join(got, " "), order)
		}
	}
}

// TestResolveKeepsUnchangedMinimum: re-solving a component whose minimum
// key does not move cancels no kernel event — not when a later finisher
// joins it, nor when that finisher leaves again.
func TestResolveKeepsUnchangedMinimum(t *testing.T) {
	k := des.NewKernel()
	p := NewPool(k)
	link := p.NewResource("link", 10)
	start := func(work float64) *Activity {
		a := NewActivity("a", work, nil)
		a.AddUsage(p.NewResource("private", 1), 1)
		a.AddUsage(link, 1)
		p.Start(a)
		return a
	}
	start(1)
	before := k.Stats().Cancelled
	late := start(5)
	p.Cancel(late)
	if d := k.Stats().Cancelled - before; d != 0 {
		t.Errorf("re-solves with an unchanged minimum cancelled %d events, want 0", d)
	}
	if k.Pending() != 1 {
		t.Errorf("%d pending events, want 1", k.Pending())
	}
}
