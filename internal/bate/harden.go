package bate

import (
	"fmt"
	"sort"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/scenario"
)

// Harden turns the B-relaxation of Eq. 3-4 into the hard guarantee the
// paper promises (§1: "the negotiated bandwidth must be met"): it
// posterior-checks every demand's true achieved availability under the
// allocation a, and for any demand the relaxation over-promised it
// re-solves the scheduling LP with explicit full-delivery constraints
// on a greedily chosen qualified-class set (most probable classes
// first until their mass reaches β_d).
//
// It returns the original allocation when every demand already holds,
// the hardened allocation otherwise, and lp.ErrInfeasible when no
// hard-guarantee allocation exists for the demand set.
func Harden(in *alloc.Input, opts ScheduleOptions, a alloc.Allocation) (alloc.Allocation, error) {
	if opts.MaxFail <= 0 {
		opts.MaxFail = 2
	}
	var weak []*demand.Demand
	for _, d := range in.Demands {
		ok, err := alloc.SatisfiesGroups(in, a, d, opts.MaxFail, opts.Groups)
		if err != nil {
			return nil, err
		}
		if !ok {
			weak = append(weak, d)
		}
	}
	if len(weak) == 0 {
		return a, nil
	}
	hard := make(map[int]bool, len(weak))
	for _, d := range weak {
		hard[d.ID] = true
	}
	return scheduleHardened(in, opts, hard)
}

// ScheduleHard runs Schedule and then Harden, returning a hard-
// guarantee allocation or an error.
func ScheduleHard(in *alloc.Input, opts ScheduleOptions) (alloc.Allocation, error) {
	a, _, err := Schedule(in, opts)
	if err != nil {
		return nil, err
	}
	return Harden(in, opts, a)
}

// scheduleHardened rebuilds the scheduling LP with hard full-delivery
// constraints for the flagged demands and the usual relaxation for the
// rest.
func scheduleHardened(in *alloc.Input, opts ScheduleOptions, hard map[int]bool) (alloc.Allocation, error) {
	if opts.Engine == lp.EngineAuto {
		// As in Scheduler.Schedule: the controller hardens the whole
		// book under its lock, which the dense tableau cannot afford.
		opts.Engine = lp.EngineRevised
	}
	p := lp.NewProblem()
	fv := alloc.AddFlowVars(p, in, alloc.FullCapacities(in), nil)
	for _, rows := range fv {
		for _, r := range rows {
			for _, v := range r {
				p.SetCost(v, 1)
			}
		}
	}
	for _, d := range in.Demands {
		for pi, pr := range d.Pairs {
			if pr.Bandwidth <= 0 {
				continue
			}
			terms := make([]lp.Term, 0, len(fv[d.ID][pi]))
			for _, v := range fv[d.ID][pi] {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
			}
			p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: pr.Bandwidth})
		}
	}
	soft := &alloc.Input{Net: in.Net, Tunnels: in.Tunnels}
	for _, d := range in.Demands {
		if !hard[d.ID] {
			soft.Demands = append(soft.Demands, d)
		}
	}
	if err := addAvailabilityGroupedStats(p, soft, fv, opts.MaxFail, opts.Groups, nil); err != nil {
		return nil, err
	}
	for _, d := range in.Demands {
		if !hard[d.ID] || d.Target <= 0 {
			continue
		}
		if err := addHardGuarantee(p, in, fv, d, opts.MaxFail, opts.Groups); err != nil {
			return nil, err
		}
	}
	sol, err := p.SolveOpts(lp.Options{Engine: opts.Engine})
	if err != nil {
		return nil, fmt.Errorf("bate: hardened schedule: %w", err)
	}
	return fv.Extract(sol), nil
}

// addHardGuarantee requires full delivery of d in the most probable
// tunnel-state classes until their cumulative probability reaches the
// demand's target. Returns lp.ErrInfeasible if even the total class
// mass under the pruning depth cannot reach the target.
func addHardGuarantee(p *lp.Problem, in *alloc.Input, fv alloc.FlowVars, d *demand.Demand, maxFail int, groups []scenario.RiskGroup) error {
	cached, _, err := scenario.CachedClassesFor(in.Net, groups, in.AllTunnelsFor(d), maxFail)
	if err != nil {
		return err
	}
	// The cached slice is shared and read-only; copy before sorting.
	classes := append([]scenario.Class(nil), cached...)
	sort.Slice(classes, func(i, j int) bool {
		if classes[i].Prob != classes[j].Prob {
			return classes[i].Prob > classes[j].Prob
		}
		return classes[i].UpMask > classes[j].UpMask
	})
	total := 0.0
	for _, c := range classes {
		total += c.Prob
	}
	if total < d.Target {
		return lp.ErrInfeasible
	}
	mass := 0.0
	for _, cls := range classes {
		if mass >= d.Target {
			break
		}
		mass += cls.Prob
		bit := 0
		for pi, pr := range d.Pairs {
			tunnels := in.TunnelsFor(d, pi)
			if pr.Bandwidth <= 0 {
				bit += len(tunnels)
				continue
			}
			terms := make([]lp.Term, 0, len(tunnels))
			for ti := range tunnels {
				if cls.TunnelUp(bit) {
					terms = append(terms, lp.Term{Var: fv[d.ID][pi][ti], Coef: 1})
				}
				bit++
			}
			if len(terms) == 0 {
				// A required class with no surviving tunnel cannot be
				// covered at all.
				return lp.ErrInfeasible
			}
			p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: pr.Bandwidth})
		}
	}
	return nil
}
