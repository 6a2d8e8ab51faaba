// Package fluid implements a rate-based ("fluid") resource-sharing model in
// the style of SimGrid's LMM solver, which the original ElastiSim builds on.
//
// Work in the simulator — compute phases, communication, file I/O — is
// represented as activities. An activity has an amount of remaining work
// (flops, bytes) and a set of resource usages. Each usage says: while this
// activity progresses at rate r, it consumes weight*r capacity on that
// resource. Resources (node cores, NIC links, the parallel file system)
// have finite capacity shared by all activities using them.
//
// The solver assigns each activity the max–min fair rate: all activities
// grow their rates equally until a resource saturates, activities bound by
// that resource are frozen, and filling continues for the rest
// (progressive filling). An alternative equal-split policy is provided for
// the fairness ablation experiment.
//
// # Incremental solving
//
// Rates are solved per connected component of the bipartite
// activity–resource graph: two activities interact only if they are
// linked by a chain of shared resources, so a Start, Cancel, or completion
// can only change rates inside the touched component(s). The pool
// maintains per-resource membership lists, discovers the affected
// component(s) by traversal on each state change, and re-solves just
// those, leaving every other activity's rate — and, crucially, its
// completion key and event — untouched. Activities within a component
// are always solved in start order, so the arithmetic (and therefore every
// bit of the result) is independent of how the component was discovered;
// the pool keeps its activities in that order, so a large component is
// filtered out of the list rather than sorted.
// An untouched component would re-solve to bit-identical rates, so the
// incremental rates equal a full recompute of every component; the
// package's tests keep that recompute as the oracle and check the
// incremental rates against it after every event of a whole simulation.
//
// # One completion event per component
//
// Every activity carries a virtual completion key (due, seq): its
// projected finish time and a kernel sequence number reserved
// (des.Kernel.ReserveSeq) whenever its rate changes. Only the component's
// minimum key is a real kernel event, held by that "leader" activity. A
// re-solve re-keys the activities whose rate moved, and re-arms at most
// one event — so a contended resource costs O(1) kernel operations per
// solve, not one cancel and reschedule per member. Because the kernel
// orders events by (time, priority, seq), the leader's event fires exactly
// where the earliest of the members' individual events would have, so
// completions interleave with every other event as if each activity had
// held its own.
package fluid

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/des"
)

// Fairness selects how contended capacity is divided.
type Fairness int

const (
	// MaxMin is progressive-filling max–min fairness (the default, matching
	// SimGrid's behaviour).
	MaxMin Fairness = iota
	// EqualSplit divides every resource evenly among the activities using
	// it, ignoring bottlenecks elsewhere. Kept for the ablation bench; it
	// under-utilizes multi-resource activities.
	EqualSplit
)

func (f Fairness) String() string {
	switch f {
	case MaxMin:
		return "max-min"
	case EqualSplit:
		return "equal-split"
	default:
		return fmt.Sprintf("Fairness(%d)", int(f))
	}
}

// actRef is a back-reference from a resource to an active activity using
// it; ui is the index of the corresponding usage in act.usages, so that
// swap-removal can fix the moved entry's position in O(1).
type actRef struct {
	act *Activity
	ui  int
}

// Resource is a capacity-limited entity: a node's compute capability
// (flops/s), a link (bytes/s), or a storage target (bytes/s).
type Resource struct {
	name     string
	capacity float64
	id       int

	// acts lists the active activities using this resource (the resource
	// side of the component graph's adjacency).
	acts []actRef

	// solver scratch state
	remaining float64
	weightSum float64
	nActive   int
	saturated bool
	mark      uint64 // component-traversal stamp
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the resource's capacity in units per second.
func (r *Resource) Capacity() float64 { return r.capacity }

// usage couples an activity to a resource with a consumption weight.
type usage struct {
	res    *Resource
	weight float64
	pos    int // index of this activity's entry in res.acts while active
}

// Activity is a unit of fluid work. Create with NewActivity, add usages,
// then hand it to Pool.Start. Solver scratch (the previous rate, the
// frozen flag) lives in the pool, keeping the struct in the 128-byte size
// class the engine allocates one of per job phase.
type Activity struct {
	name       string
	remaining  float64
	usages     []usage
	onComplete func()

	rate    float64
	maxRate float64  // 0 = unlimited
	due     des.Time // completion key time; Infinity = no key
	dueSeq  uint64   // completion key's reserved kernel sequence number
	arm     *armSlot // the component's completion event, when this is its leader
	pool    *Pool
	index   int    // position in pool.active, -1 when not active
	seq     uint64 // start order; canonical within-component solve order
	mark    uint64 // component-traversal stamp
}

// armSlot is a component's one live completion event together with the
// activity holding it. The pool recycles slots, so the handler closure is
// built once per slot rather than once per scheduled completion.
type armSlot struct {
	ev   *des.Event
	act  *Activity
	fire des.Handler
}

// NewActivity creates an activity with the given total work (in resource
// units, e.g. flops or bytes). onComplete runs when the work reaches zero;
// it may start new activities.
func NewActivity(name string, work float64, onComplete func()) *Activity {
	if work < 0 || math.IsNaN(work) {
		panic(fmt.Sprintf("fluid: invalid work %v for activity %s", work, name))
	}
	return &Activity{name: name, remaining: work, onComplete: onComplete, due: des.Infinity, index: -1}
}

// AddUsage declares that the activity consumes weight units of res capacity
// per unit of activity progress. Must be called before Start.
func (a *Activity) AddUsage(res *Resource, weight float64) {
	if a.pool != nil {
		panic("fluid: AddUsage after Start")
	}
	if weight <= 0 || math.IsNaN(weight) {
		panic(fmt.Sprintf("fluid: invalid usage weight %v on %s", weight, res.name))
	}
	a.usages = append(a.usages, usage{res: res, weight: weight})
}

// SetMaxRate caps the activity's progress rate. It expresses constraints
// from resources private to the activity's owner (e.g. a job's own node
// links bounding its PFS transfer) without registering those resources in
// the solver. Must be called before Start.
func (a *Activity) SetMaxRate(r float64) {
	if a.pool != nil {
		panic("fluid: SetMaxRate after Start")
	}
	if r <= 0 || math.IsNaN(r) {
		panic(fmt.Sprintf("fluid: invalid max rate %v", r))
	}
	a.maxRate = r
}

// Name returns the activity's diagnostic name.
func (a *Activity) Name() string { return a.name }

// Remaining returns the work left, valid only between pool updates (the
// pool lazily advances progress); use Pool.RemainingOf for an exact value.
func (a *Activity) Remaining() float64 { return a.remaining }

// Rate returns the currently assigned progress rate.
func (a *Activity) Rate() float64 { return a.rate }

// Active reports whether the activity is registered in a pool.
func (a *Activity) Active() bool { return a.index >= 0 }

// Pool manages the set of running activities on top of a DES kernel. All
// methods must be called from the kernel's event loop (single-threaded).
type Pool struct {
	kernel    *des.Kernel
	fairness  Fairness
	resources []*Resource
	// active lists the running activities in start order. Removal leaves
	// a nil tombstone, and the list compacts in place, keeping the order,
	// once tombstones outnumber live entries; live counts the non-nil
	// entries. Iteration must skip nils.
	active     []*Activity
	live       int
	lastUpdate des.Time
	epsilon    float64

	startSeq uint64 // next Activity.seq
	stamp    uint64 // traversal stamp generator; every traversal takes its own

	// comp is the scratch buffer component traversals collect into;
	// compRes collects the component's distinct resources. prevRate and
	// frozen are per-solve scratch parallel to comp.
	comp     []*Activity
	compRes  []*Resource
	prevRate []float64
	frozen   []bool

	freeArms []*armSlot // disarmed, ready for the next leader

	// Performance counters (see the accessors for meanings).
	solves     uint64
	solvedActs uint64
}

// NewPool creates a pool bound to the kernel. Pools share no state with
// each other, so any number of simulations can run concurrently in one
// process.
func NewPool(k *des.Kernel) *Pool {
	return &Pool{kernel: k, epsilon: 1e-9}
}

// SetFairness selects the sharing policy. Call before starting activities.
func (p *Pool) SetFairness(f Fairness) { p.fairness = f }

// Solves returns how many rate recomputations have run (for perf metrics).
func (p *Pool) Solves() uint64 { return p.solves }

// SolvedActivities returns the cumulative number of activities passed
// through the solver — the work metric incremental solving reduces.
func (p *Pool) SolvedActivities() uint64 { return p.solvedActs }

// NewResource registers a resource with the pool.
func (p *Pool) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 || math.IsNaN(capacity) {
		panic(fmt.Sprintf("fluid: invalid capacity %v for resource %s", capacity, name))
	}
	r := &Resource{name: name, capacity: capacity, id: len(p.resources)}
	p.resources = append(p.resources, r)
	return r
}

// Start registers the activity and recomputes rates in its component.
// Zero-work activities complete at the current timestamp (via an immediate
// event, so that the caller's stack unwinds first).
func (p *Pool) Start(a *Activity) {
	if a.pool != nil {
		panic(fmt.Sprintf("fluid: activity %s started twice", a.name))
	}
	if len(a.usages) == 0 {
		panic(fmt.Sprintf("fluid: activity %s has no resource usages", a.name))
	}
	a.pool = p
	a.seq = p.startSeq
	p.startSeq++
	p.advanceProgress()
	a.index = len(p.active)
	p.active = append(p.active, a)
	p.live++
	for ui := range a.usages {
		u := &a.usages[ui]
		u.pos = len(u.res.acts)
		u.res.acts = append(u.res.acts, actRef{act: a, ui: ui})
	}
	p.solves++
	// The new activity bridges every component it touches into one.
	p.stamp++
	p.collectFrom(a)
	p.solveComponent()
}

// Cancel removes an activity without running its completion callback.
func (p *Pool) Cancel(a *Activity) {
	if a.index < 0 || a.pool != p {
		return
	}
	p.advanceProgress()
	p.remove(a)
	p.solveAfterRemoval(a)
}

// solveAfterRemoval re-solves the activities the removed activity was
// sharing resources with. Removal can split its old component, so each of
// its resources seeds an independent traversal (seeds reached by an
// earlier seed's traversal are skipped): every post-removal component is
// solved exactly once, in isolation. Each traversal takes its own stamp,
// so that solveComponent's filter picks up one component, not every
// component this removal has visited so far.
func (p *Pool) solveAfterRemoval(a *Activity) {
	p.solves++
	first := p.stamp + 1
	for ui := range a.usages {
		res := a.usages[ui].res
		if res.mark >= first { // visited by a previous seed's traversal
			continue
		}
		p.stamp++
		p.comp = p.comp[:0]
		p.compRes = p.compRes[:0]
		p.visitResource(res)
		p.drainQueue()
		if len(p.comp) > 0 {
			p.solveComponent()
		}
	}
}

// RemainingOf returns the exact remaining work of an active activity at the
// current kernel time.
func (p *Pool) RemainingOf(a *Activity) float64 {
	if a.index < 0 {
		return a.remaining
	}
	elapsed := float64(p.kernel.Now() - p.lastUpdate)
	rem := a.remaining - a.rate*elapsed
	if rem < 0 {
		rem = 0
	}
	return rem
}

// ActiveCount returns the number of running activities.
func (p *Pool) ActiveCount() int { return p.live }

// remove unlinks the activity from the pool and from every resource's
// membership list, and retires its completion event if it holds one.
func (p *Pool) remove(a *Activity) {
	p.active[a.index] = nil
	a.index = -1
	p.live--
	n := len(p.active)
	for n > 0 && p.active[n-1] == nil {
		n--
	}
	p.active = p.active[:n]
	if holes := n - p.live; holes > 64 && holes > p.live {
		p.compact()
	}
	for ui := range a.usages {
		u := &a.usages[ui]
		acts := u.res.acts
		end := len(acts) - 1
		if u.pos != end {
			moved := acts[end]
			acts[u.pos] = moved
			moved.act.usages[moved.ui].pos = u.pos
		}
		acts[end] = actRef{}
		u.res.acts = acts[:end]
	}
	if a.arm != nil {
		p.disarm(a)
	}
}

// compact squeezes the tombstones out of p.active in place, preserving
// start order.
func (p *Pool) compact() {
	w := 0
	for _, a := range p.active {
		if a == nil {
			continue
		}
		a.index = w
		p.active[w] = a
		w++
	}
	clear(p.active[w:])
	p.active = p.active[:w]
}

// advanceProgress applies the elapsed time since the last update to all
// active activities' remaining work.
func (p *Pool) advanceProgress() {
	now := p.kernel.Now()
	elapsed := float64(now - p.lastUpdate)
	if elapsed > 0 {
		for _, a := range p.active {
			if a == nil {
				continue
			}
			a.remaining -= a.rate * elapsed
			if a.remaining < 0 {
				a.remaining = 0
			}
		}
	}
	p.lastUpdate = now
}

// complete finalizes an activity whose work reached zero: the leader of
// its component, whose event just fired (remove releases it).
func (p *Pool) complete(a *Activity) {
	p.advanceProgress()
	// Guard against float drift: force remaining to zero at completion.
	a.remaining = 0
	p.remove(a)
	p.solveAfterRemoval(a)
	if a.onComplete != nil {
		a.onComplete()
	}
}

// collectFrom gathers the connected component containing a into p.comp /
// p.compRes (breadth-first over the bipartite activity–resource graph).
// The caller must have advanced p.stamp to open a fresh visited set.
func (p *Pool) collectFrom(a *Activity) {
	p.comp = p.comp[:0]
	p.compRes = p.compRes[:0]
	a.mark = p.stamp
	p.comp = append(p.comp, a)
	p.drainQueue()
}

// drainQueue expands p.comp transitively: for every collected activity,
// visit its resources; for every visited resource, collect its activities.
func (p *Pool) drainQueue() {
	s := p.stamp
	for head := 0; head < len(p.comp); head++ {
		a := p.comp[head]
		for ui := range a.usages {
			if res := a.usages[ui].res; res.mark != s {
				p.visitResource(res)
			}
		}
	}
}

// visitResource marks res and enqueues its unvisited activities.
func (p *Pool) visitResource(res *Resource) {
	s := p.stamp
	res.mark = s
	p.compRes = append(p.compRes, res)
	for _, ref := range res.acts {
		if ref.act.mark != s {
			ref.act.mark = s
			p.comp = append(p.comp, ref.act)
		}
	}
}

// orderComponent puts p.comp, the component the traversal stamped
// p.stamp collected, in start order. When the component is a large share
// of the pool, it is refiltered from p.active, which is kept in start
// order: one pass with no comparisons. A small component is sorted.
func (p *Pool) orderComponent() {
	if !p.filterPays() {
		slices.SortFunc(p.comp, compareSeq)
		return
	}
	s := p.stamp
	comp := p.comp[:0]
	for _, a := range p.active {
		if a != nil && a.mark == s {
			comp = append(comp, a)
		}
	}
	p.comp = comp
}

// filterPays reports whether scanning p.active costs no more than sorting
// p.comp: a scan reads every entry once, a sort of m activities makes
// about m·log2(m) comparisons.
func (p *Pool) filterPays() bool {
	m := len(p.comp)
	return len(p.active) <= m*bits.Len(uint(m))
}

// compareSeq orders activities by start sequence (sequences are unique).
func compareSeq(a, b *Activity) int {
	if a.seq < b.seq {
		return -1
	}
	return 1
}

// solveComponent solves rates for the activities in p.comp (one connected
// component) and re-keys the activities whose rates changed.
// Activities are solved in start order, making the floating-point
// arithmetic — and hence the solved rates — independent of the traversal
// order that discovered the component.
func (p *Pool) solveComponent() {
	p.orderComponent()
	comp := p.comp
	p.solvedActs += uint64(len(comp))
	p.prevRate = p.prevRate[:0]
	for _, a := range comp {
		p.prevRate = append(p.prevRate, a.rate)
	}
	switch p.fairness {
	case MaxMin:
		p.solveMaxMin(comp, p.compRes)
	case EqualSplit:
		p.solveEqualSplit(comp, p.compRes)
	}
	p.reschedule(comp)
}

// reschedule re-keys the just-solved activities and arms the component's
// one completion event at its minimum key. An activity whose rate is
// exactly unchanged keeps its key: the previously computed completion time
// is the same closed form evaluated earlier, so keeping it cannot alter
// the simulation (completion forces remaining to zero, absorbing sub-ulp
// drift). A changed rate takes a fresh key, its sequence number reserved
// in start order — the numbers per-activity Schedule calls would consume —
// and stales the event if the activity held it. Any other holder (a
// component merged by Start brings one) is disarmed, and the leader is
// armed unless it already holds the event: a re-solve that moves no
// minimum touches no event.
func (p *Pool) reschedule(comp []*Activity) {
	now := p.kernel.Now()
	var lead *Activity
	for i, a := range comp {
		if a.due == des.Infinity || a.rate != p.prevRate[i] {
			switch {
			case a.remaining <= 0:
				a.due = now
			case a.rate <= 0:
				a.due = des.Infinity
			default:
				a.due = now + des.Time(a.remaining/a.rate)
			}
			if a.due < des.Infinity {
				a.dueSeq = p.kernel.ReserveSeq()
			}
			if a.arm != nil {
				p.disarm(a)
			}
		}
		if a.due < des.Infinity && (lead == nil || a.due < lead.due ||
			a.due == lead.due && a.dueSeq < lead.dueSeq) {
			lead = a
		}
	}
	for _, a := range comp {
		if a.arm != nil && a != lead {
			p.disarm(a)
		}
	}
	if lead != nil && lead.arm == nil {
		p.arm(lead)
	}
}

// arm schedules a's completion event at its key, reusing a recycled slot
// (and its handler) when one is free.
func (p *Pool) arm(a *Activity) {
	var m *armSlot
	if n := len(p.freeArms); n > 0 {
		m = p.freeArms[n-1]
		p.freeArms = p.freeArms[:n-1]
	} else {
		m = &armSlot{}
		m.fire = func() { p.complete(m.act) }
	}
	m.act = a
	m.ev = p.kernel.ScheduleReserved(a.due, des.PriorityActivity, a.dueSeq, m.fire)
	a.arm = m
}

// disarm retires the event a holds — cancelled, unless it already fired —
// and recycles its slot; a keeps its key.
func (p *Pool) disarm(a *Activity) {
	m := a.arm
	p.kernel.Cancel(m.ev)
	p.kernel.Release(m.ev)
	m.ev, m.act = nil, nil
	p.freeArms = append(p.freeArms, m)
	a.arm = nil
}

// solveMaxMin assigns progressive-filling max–min fair rates within one
// component.
func (p *Pool) solveMaxMin(comp []*Activity, touched []*Resource) {
	if len(comp) == 0 {
		return
	}
	for _, r := range touched {
		r.remaining = r.capacity
		r.weightSum = 0
		r.saturated = false
	}
	frozen := p.frozen[:0]
	for _, a := range comp {
		a.rate = 0
		frozen = append(frozen, false)
		for _, u := range a.usages {
			u.res.weightSum += u.weight
		}
	}
	p.frozen = frozen
	unfrozen := len(comp)
	for unfrozen > 0 {
		// Find the bottleneck increment: the tightest resource, or the
		// nearest per-activity rate cap.
		delta := math.Inf(1)
		for _, r := range touched {
			if r.saturated || r.weightSum <= 0 {
				continue
			}
			if d := r.remaining / r.weightSum; d < delta {
				delta = d
			}
		}
		for i, a := range comp {
			if frozen[i] || a.maxRate <= 0 {
				continue
			}
			if d := a.maxRate - a.rate; d < delta {
				delta = d
			}
		}
		if math.IsInf(delta, 1) {
			// No unfrozen activity is constrained — cannot happen since
			// every activity has at least one usage, but guard anyway.
			break
		}
		// Apply the increment.
		for i, a := range comp {
			if frozen[i] {
				continue
			}
			a.rate += delta
		}
		for _, r := range touched {
			if r.saturated || r.weightSum <= 0 {
				continue
			}
			r.remaining -= delta * r.weightSum
			if r.remaining <= p.epsilon*r.capacity {
				r.remaining = 0
				r.saturated = true
			}
		}
		// Freeze activities that touch a saturated resource or hit their
		// rate cap; either way their consumption stops growing.
		for i, a := range comp {
			if frozen[i] {
				continue
			}
			freeze := a.maxRate > 0 && a.rate >= a.maxRate-p.epsilon*a.maxRate
			if !freeze {
				for _, u := range a.usages {
					if u.res.saturated {
						freeze = true
						break
					}
				}
			}
			if freeze {
				frozen[i] = true
				unfrozen--
				// Its weight no longer grows on other resources.
				for _, u2 := range a.usages {
					u2.res.weightSum -= u2.weight
				}
			}
		}
	}
	// The uniform fill level IS the progress rate (weights scale
	// consumption, not progress).
}

// solveEqualSplit divides each resource evenly among its users; an
// activity's rate is its most restrictive per-resource share. Every user
// of a touched resource is in the component by construction, so the
// per-resource counts are globally correct.
func (p *Pool) solveEqualSplit(comp []*Activity, touched []*Resource) {
	for _, r := range touched {
		r.nActive = 0
	}
	for _, a := range comp {
		for _, u := range a.usages {
			u.res.nActive++
		}
	}
	for _, a := range comp {
		rate := math.Inf(1)
		for _, u := range a.usages {
			share := u.res.capacity / float64(u.res.nActive) / u.weight
			if share < rate {
				rate = share
			}
		}
		if a.maxRate > 0 && a.maxRate < rate {
			rate = a.maxRate
		}
		a.rate = rate
	}
}
