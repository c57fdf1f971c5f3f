// Package te implements the baseline traffic-engineering schemes BATE
// is compared against in §5: FFC [39], TEAVAR [15], SWAN [24], SMORE
// [36] and B4 [26]. All operate on the shared alloc.Input model and
// produce alloc.Allocation bandwidth assignments.
//
// TEAVAR is implemented as the chance-constrained variant that shares
// BATE's scenario-class relaxation but applies one global availability
// level β to every demand — precisely the "one-size-fits-all" behaviour
// the paper critiques (§2.1). FFC enumerates every tunnel-state
// reachable with at most k concurrent link failures and guarantees the
// granted bandwidth in all of them.
package te

import (
	"fmt"
	"math"

	"bate/internal/alloc"
	"bate/internal/lp"
	"bate/internal/scenario"
)

// Scheme names, for experiment tables.
const (
	NameFFC    = "FFC"
	NameTEAVAR = "TEAVAR"
	NameSWAN   = "SWAN"
	NameSMORE  = "SMORE"
	NameB4     = "B4"
)

// grantVars adds one "granted bandwidth" variable per (demand, pair),
// bounded by the demanded bandwidth.
func grantVars(p *lp.Problem, in *alloc.Input) map[int][]lp.VarID {
	gv := make(map[int][]lp.VarID, len(in.Demands))
	for _, d := range in.Demands {
		row := make([]lp.VarID, len(d.Pairs))
		for pi, pr := range d.Pairs {
			row[pi] = p.AddVariable(fmt.Sprintf("g[d%d,p%d]", d.ID, pi), 0, pr.Bandwidth, 0)
		}
		gv[d.ID] = row
	}
	return gv
}

// allUpClass returns a class in which every tunnel is up.
func allUpClass() scenario.Class { return scenario.Class{UpMask: math.MaxUint64} }

// FFC computes the Forward Fault Correction allocation protecting
// against any combination of at most k concurrent link failures. It is
// a two-stage LP: first maximize the common granted fraction t of
// every demand (the conservative even scaling of Fig. 2(b)), then
// maximize the total granted bandwidth holding t.
func FFC(in *alloc.Input, k int) (alloc.Allocation, error) {
	if k < 0 {
		return nil, fmt.Errorf("te: FFC k=%d must be >= 0", k)
	}
	classes, err := demandClasses(in, k)
	if err != nil {
		return nil, err
	}
	// Stage 1: max t with granted >= t * b.
	build := func(tFixed float64) (*lp.Problem, alloc.FlowVars, map[int][]lp.VarID, lp.VarID) {
		p := lp.NewProblem()
		p.SetMaximize()
		fv := alloc.AddFlowVars(p, in, alloc.FullCapacities(in), nil)
		gv := grantVars(p, in)
		var tv lp.VarID = -1
		if tFixed < 0 {
			tv = p.AddVariable("t", 0, 1, 1)
		}
		for _, d := range in.Demands {
			for pi, pr := range d.Pairs {
				if pr.Bandwidth <= 0 {
					continue
				}
				if tFixed < 0 {
					// granted - t*b >= 0
					p.AddConstraint(lp.Constraint{
						Terms: []lp.Term{{Var: gv[d.ID][pi], Coef: 1}, {Var: tv, Coef: -pr.Bandwidth}},
						Op:    lp.GE, RHS: 0,
					})
				} else {
					p.AddConstraint(lp.Constraint{
						Terms: []lp.Term{{Var: gv[d.ID][pi], Coef: 1}},
						Op:    lp.GE, RHS: tFixed * pr.Bandwidth,
					})
					p.SetCost(gv[d.ID][pi], 1)
				}
				// FFC protection: delivered >= granted in every ≤k-failure class.
				for _, cls := range classes[d.ID] {
					terms := fv.ClassTerms(nil, in, d, pi, cls)
					terms = append(terms, lp.Term{Var: gv[d.ID][pi], Coef: -1})
					p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: 0})
				}
			}
		}
		return p, fv, gv, tv
	}
	p1, _, _, tv := build(-1)
	sol1, err := p1.Solve()
	if err != nil {
		return nil, fmt.Errorf("te: FFC stage 1: %w", err)
	}
	t := sol1.Value(tv)
	p2, fv, gv, _ := build(t * (1 - 1e-9))
	sol2, err := p2.Solve()
	if err != nil {
		return nil, fmt.Errorf("te: FFC stage 2: %w", err)
	}
	a := fv.Extract(sol2)
	// FFC flows send at their guaranteed rate g, spread over the
	// protection split: scale each pair's allocation down so it sums
	// to g (the conservative behaviour of Fig. 2(b) and Table 3).
	for _, d := range in.Demands {
		for pi := range d.Pairs {
			g := sol2.Value(gv[d.ID][pi])
			sum := 0.0
			for _, f := range a[d.ID][pi] {
				sum += f
			}
			if sum <= g || sum <= 0 {
				continue
			}
			scale := g / sum
			for ti := range a[d.ID][pi] {
				a[d.ID][pi][ti] *= scale
			}
		}
	}
	return a, nil
}

// demandClasses computes, per demand, the tunnel-state classes
// reachable with at most k concurrent failure units under the input's
// failure model.
func demandClasses(in *alloc.Input, k int) (map[int][]scenario.Class, error) {
	out := make(map[int][]scenario.Class, len(in.Demands))
	for _, d := range in.Demands {
		cls, _, err := in.Classes(d, k)
		if err != nil {
			return nil, fmt.Errorf("te: classes for demand %d: %w", d.ID, err)
		}
		out[d.ID] = cls
	}
	return out, nil
}

// TEAVAR computes a one-size-fits-all availability allocation in two
// stages, mirroring the utilization-availability balance of [15]:
// first maximize total granted bandwidth (network utilization), then —
// holding the grants — maximize every demand's class-weighted
// availability toward the single global level beta. All demands share
// the same β pressure regardless of their own targets (the §2.1
// critique); availability above β earns only a vanishing reward.
func TEAVAR(in *alloc.Input, beta float64, maxFail int) (alloc.Allocation, error) {
	if beta < 0 || beta >= 1 {
		return nil, fmt.Errorf("te: TEAVAR beta=%v out of [0,1)", beta)
	}
	classes, err := demandClasses(in, maxFail)
	if err != nil {
		return nil, err
	}
	// Stage 1: pure throughput.
	first, err := SWAN(in)
	if err != nil {
		return nil, fmt.Errorf("te: TEAVAR stage 1: %w", err)
	}
	granted := make(map[int][]float64, len(in.Demands))
	for _, d := range in.Demands {
		row := make([]float64, len(d.Pairs))
		for pi, pr := range d.Pairs {
			row[pi] = math.Min(first.AllocatedFor(d, pi), pr.Bandwidth)
		}
		granted[d.ID] = row
	}
	// Stage 2: same grants, maximum uniform availability.
	p := lp.NewProblem()
	p.SetMaximize()
	fv := alloc.AddFlowVars(p, in, alloc.FullCapacities(in), nil)
	for _, d := range in.Demands {
		cls := classes[d.ID]
		bv := make([]lp.VarID, len(cls))
		availTerms := make([]lp.Term, 0, len(cls))
		for ci, c := range cls {
			// Availability beyond β earns nothing (TEAVAR's CVaR is
			// blind past its level); the slack below β costs 100, so
			// every demand is pushed to the same β and no further —
			// the one-size-fits-all behaviour of §2.1.
			bv[ci] = p.AddVariable(fmt.Sprintf("B[d%d,c%d]", d.ID, ci), 0, 1, 0)
			availTerms = append(availTerms, lp.Term{Var: bv[ci], Coef: c.Prob})
		}
		slack := p.AddVariable(fmt.Sprintf("s[d%d]", d.ID), 0, beta, -100)
		availTerms = append(availTerms, lp.Term{Var: slack, Coef: 1})
		p.AddConstraint(lp.Constraint{Terms: availTerms, Op: lp.GE, RHS: beta})
		for pi, pr := range d.Pairs {
			if pr.Bandwidth <= 0 {
				continue
			}
			g := granted[d.ID][pi]
			// The grant must remain deliverable with all tunnels up.
			anchor := fv.ClassTerms(nil, in, d, pi, allUpClass())
			p.AddConstraint(lp.Constraint{Terms: anchor, Op: lp.GE, RHS: g * (1 - 1e-9)})
			for ci, c := range cls {
				// delivered ≥ B·granted is bilinear; linearize around
				// the full demand: delivered_cls ≥ b·B - (b - granted).
				terms := fv.ClassTerms(nil, in, d, pi, c)
				terms = append(terms, lp.Term{Var: bv[ci], Coef: -pr.Bandwidth})
				p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: g - pr.Bandwidth})
			}
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("te: TEAVAR stage 2: %w", err)
	}
	return fv.Extract(sol), nil
}

// SWAN maximizes total throughput with no failure protection [24]
// (single priority class; the paper lets SWAN "maximize the total
// throughput of all users").
func SWAN(in *alloc.Input) (alloc.Allocation, error) {
	p := lp.NewProblem()
	p.SetMaximize()
	fv := alloc.AddFlowVars(p, in, alloc.FullCapacities(in), nil)
	gv := grantVars(p, in)
	for _, d := range in.Demands {
		for pi := range d.Pairs {
			p.SetCost(gv[d.ID][pi], 1)
			terms := fv.ClassTerms(nil, in, d, pi, allUpClass())
			terms = append(terms, lp.Term{Var: gv[d.ID][pi], Coef: -1})
			p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: 0})
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("te: SWAN: %w", err)
	}
	return fv.Extract(sol), nil
}

// SMORE pairs oblivious-routing tunnels with adaptive rate allocation
// [36]: maximize total throughput, then minimize the maximum link
// utilization among throughput-optimal allocations (its load-balancing
// objective). The caller supplies oblivious tunnels in the input; the
// LP itself is routing-agnostic.
func SMORE(in *alloc.Input) (alloc.Allocation, error) {
	// Stage 1: throughput.
	first, err := SWAN(in)
	if err != nil {
		return nil, fmt.Errorf("te: SMORE stage 1: %w", err)
	}
	granted := make(map[int][]float64, len(in.Demands))
	total := 0.0
	for _, d := range in.Demands {
		row := make([]float64, len(d.Pairs))
		for pi, pr := range d.Pairs {
			got := math.Min(first.AllocatedFor(d, pi), pr.Bandwidth)
			row[pi] = got
			total += got
		}
		granted[d.ID] = row
	}
	// Stage 2: same throughput, minimum max-utilization.
	p := lp.NewProblem()
	fv := alloc.AddFlowVars(p, in, alloc.FullCapacities(in), nil)
	u := p.AddVariable("maxutil", 0, 1, 1) // minimize U
	for _, l := range in.Net.Links() {
		// link load - U*cap <= 0; rebuild load terms from tunnels.
		var terms []lp.Term
		for _, d := range in.Demands {
			for pi := range d.Pairs {
				tunnels := in.TunnelsFor(d, pi)
				for ti, t := range tunnels {
					if t.Uses(l.ID) {
						terms = append(terms, lp.Term{Var: fv[d.ID][pi][ti], Coef: 1})
					}
				}
			}
		}
		if len(terms) == 0 {
			continue
		}
		terms = append(terms, lp.Term{Var: u, Coef: -l.Capacity})
		p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.LE, RHS: 0})
	}
	for _, d := range in.Demands {
		for pi := range d.Pairs {
			terms := fv.ClassTerms(nil, in, d, pi, allUpClass())
			p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE,
				RHS: granted[d.ID][pi] * (1 - 1e-9)})
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("te: SMORE stage 2: %w", err)
	}
	_ = total
	return fv.Extract(sol), nil
}

// B4 computes max-min fair allocations via bandwidth waterfilling
// [26]: the common delivered bandwidth level t of all unfrozen demand
// pairs is raised until either some pairs saturate their demand
// (frozen as satisfied) or a bottleneck stops them (frozen at t);
// repeat until every pair is frozen.
func B4(in *alloc.Input) (alloc.Allocation, error) {
	type pairKey struct{ id, pi int }
	frozen := make(map[pairKey]float64) // absolute granted Mbps when frozen
	var lastAlloc alloc.Allocation

	totalPairs := 0
	for _, d := range in.Demands {
		for _, pr := range d.Pairs {
			if pr.Bandwidth > 0 {
				totalPairs++
			}
		}
	}

	for round := 0; len(frozen) < totalPairs && round <= totalPairs; round++ {
		// The water level cannot exceed the smallest unfrozen demand.
		minB := math.Inf(1)
		for _, d := range in.Demands {
			for pi, pr := range d.Pairs {
				if pr.Bandwidth <= 0 {
					continue
				}
				if _, ok := frozen[pairKey{d.ID, pi}]; !ok && pr.Bandwidth < minB {
					minB = pr.Bandwidth
				}
			}
		}
		p := lp.NewProblem()
		p.SetMaximize()
		fv := alloc.AddFlowVars(p, in, alloc.FullCapacities(in), nil)
		tv := p.AddVariable("t", 0, minB, 1)
		for _, d := range in.Demands {
			for pi, pr := range d.Pairs {
				if pr.Bandwidth <= 0 {
					continue
				}
				terms := fv.ClassTerms(nil, in, d, pi, allUpClass())
				if fr, ok := frozen[pairKey{d.ID, pi}]; ok {
					p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE,
						RHS: fr * (1 - 1e-9)})
				} else {
					terms = append(terms, lp.Term{Var: tv, Coef: -1})
					p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: 0})
				}
			}
		}
		sol, err := p.Solve()
		if err != nil {
			return nil, fmt.Errorf("te: B4 round %d: %w", round, err)
		}
		t := sol.Value(tv)
		// Refinement: hold the water level, maximize total granted so
		// pairs with slack rise above t before the freeze test.
		p2 := lp.NewProblem()
		p2.SetMaximize()
		fv2 := alloc.AddFlowVars(p2, in, alloc.FullCapacities(in), nil)
		gv2 := grantVars(p2, in)
		for _, d := range in.Demands {
			for pi, pr := range d.Pairs {
				if pr.Bandwidth <= 0 {
					continue
				}
				p2.SetCost(gv2[d.ID][pi], 1)
				terms := fv2.ClassTerms(nil, in, d, pi, allUpClass())
				gterms := append(append([]lp.Term(nil), terms...),
					lp.Term{Var: gv2[d.ID][pi], Coef: -1})
				p2.AddConstraint(lp.Constraint{Terms: gterms, Op: lp.GE, RHS: 0})
				floor := math.Min(t, pr.Bandwidth)
				if fr, ok := frozen[pairKey{d.ID, pi}]; ok {
					floor = fr
				}
				p2.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE,
					RHS: floor * (1 - 1e-9)})
			}
		}
		sol2, err := p2.Solve()
		if err != nil {
			return nil, fmt.Errorf("te: B4 refine %d: %w", round, err)
		}
		lastAlloc = fv2.Extract(sol2)
		// Freeze saturated pairs (demand met) and bottlenecked pairs
		// (delivered stuck at the water level).
		prevFrozen := len(frozen)
		for _, d := range in.Demands {
			for pi, pr := range d.Pairs {
				k := pairKey{d.ID, pi}
				if _, ok := frozen[k]; ok || pr.Bandwidth <= 0 {
					continue
				}
				delivered := lastAlloc.AllocatedFor(d, pi)
				switch {
				case delivered >= pr.Bandwidth-1e-6:
					frozen[k] = pr.Bandwidth
				case delivered <= t+1e-6:
					frozen[k] = t
				}
			}
		}
		if len(frozen) == prevFrozen {
			// No progress; freeze the rest at their delivered level.
			for _, d := range in.Demands {
				for pi, pr := range d.Pairs {
					k := pairKey{d.ID, pi}
					if _, ok := frozen[k]; !ok && pr.Bandwidth > 0 {
						frozen[k] = lastAlloc.AllocatedFor(d, pi)
					}
				}
			}
		}
	}
	if lastAlloc == nil {
		return alloc.New(in), nil
	}
	return lastAlloc, nil
}
