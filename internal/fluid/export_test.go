package fluid

import (
	"fmt"

	"repro/internal/des"
)

// solveAll re-solves every component: the full recompute the incremental
// solver replaced, kept verbatim as its oracle. Component enumeration order
// is irrelevant: components are disjoint and each is solved in canonical
// (start-order) sequence. Each component's traversal takes its own stamp,
// as in solveAfterRemoval.
func (p *Pool) solveAll() {
	first := p.stamp + 1
	for _, a := range p.active {
		if a == nil || a.mark >= first {
			continue
		}
		p.stamp++
		p.collectFrom(a)
		p.solveComponent()
	}
}

// CheckFullSolve re-solves every component with solveAll and reports the
// first activity, in start order, whose incremental state differs from
// the recomputed one: its rate (bit for bit), its completion key, or
// whether it holds its component's completion event. While all of that
// matches, the recompute re-keys and re-arms nothing, so a run checked
// after every event stays bit-identical to an unchecked one; only
// SolvedActivities also counts the recompute's work.
func (p *Pool) CheckFullSolve() error {
	type state struct {
		rate  float64
		due   des.Time
		seq   uint64
		armed bool
	}
	of := func(a *Activity) state { return state{a.rate, a.due, a.dueSeq, a.arm != nil} }
	inc := make([]state, len(p.active))
	for i, a := range p.active {
		if a != nil {
			inc[i] = of(a)
		}
	}
	p.solveAll()
	for i, a := range p.active {
		if a == nil {
			continue
		}
		switch got, want := inc[i], of(a); {
		case got.rate != want.rate:
			return fmt.Errorf("%s: incremental rate %b, full %b", a.name, got.rate, want.rate)
		case got.due != want.due || got.seq != want.seq:
			return fmt.Errorf("%s: incremental key (%b, %d), full (%b, %d)", a.name, got.due, got.seq, want.due, want.seq)
		case got.armed != want.armed:
			return fmt.Errorf("%s: holds its component's completion event: incremental %v, full %v", a.name, got.armed, want.armed)
		}
	}
	return nil
}
