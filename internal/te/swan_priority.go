package te

import (
	"fmt"
	"sort"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
)

// SWAN's full design [24] serves three priority classes — interactive,
// elastic and background — allocating higher classes first and letting
// lower classes use what remains. SWANPriority implements that
// progressive allocation; the single-class SWAN above is the paper's
// simplification ("let SWAN maximize the total throughput of all
// users").

// PriorityOf maps a demand to its SWAN class: 0 = interactive (highest)
// and larger numbers are lower classes.
type PriorityOf func(*demand.Demand) int

// PriorityByTarget buckets demands the way an inter-DC operator would:
// four-nines-and-up targets are interactive, anything with a real
// availability target is elastic, best-effort is background.
func PriorityByTarget(d *demand.Demand) int {
	switch {
	case d.Target >= 0.9995:
		return 0
	case d.Target > 0:
		return 1
	default:
		return 2
	}
}

// SWANPriority computes the multi-class SWAN allocation: classes are
// processed from highest priority down, each maximizing its own
// delivered bandwidth subject to the link capacity left over by the
// classes above it.
func SWANPriority(in *alloc.Input, priority PriorityOf) (alloc.Allocation, error) {
	if priority == nil {
		priority = PriorityByTarget
	}
	// Group demands by class.
	classes := make(map[int][]*demand.Demand)
	var order []int
	for _, d := range in.Demands {
		c := priority(d)
		if _, ok := classes[c]; !ok {
			order = append(order, c)
		}
		classes[c] = append(classes[c], d)
	}
	sort.Ints(order)

	result := alloc.New(in)
	caps := alloc.FullCapacities(in)
	for _, cls := range order {
		sub := in.WithDemands(classes[cls])
		p := lp.NewProblem()
		p.SetMaximize()
		fv := alloc.AddFlowVars(p, sub, caps, nil)
		gv := grantVars(p, sub)
		for _, d := range sub.Demands {
			for pi := range d.Pairs {
				p.SetCost(gv[d.ID][pi], 1)
				terms := deliveredTerms(sub, fv, d, pi, allUpClass())
				terms = append(terms, lp.Term{Var: gv[d.ID][pi], Coef: -1})
				p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: 0})
			}
		}
		sol, err := p.Solve()
		if err != nil {
			return nil, fmt.Errorf("te: SWAN priority class %d: %w", cls, err)
		}
		classAlloc := fv.Extract(sol)
		// Install and drain the consumed capacity before the next class.
		for _, d := range sub.Demands {
			result[d.ID] = classAlloc[d.ID]
			for pi := range d.Pairs {
				tunnels := sub.TunnelsFor(d, pi)
				for ti, f := range classAlloc[d.ID][pi] {
					if f <= 0 {
						continue
					}
					for _, e := range tunnels[ti].Links {
						caps[e] -= f
						if caps[e] < 0 {
							caps[e] = 0
						}
					}
				}
			}
		}
	}
	return result, nil
}
