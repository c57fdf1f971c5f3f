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
// first until their mass reaches β_d). The re-solve can move a demand
// that still rides the relaxation below its target, so the check
// repeats, flagging each newly weak demand, until every demand holds.
//
// It returns the original allocation when every demand already holds,
// the hardened allocation otherwise, and lp.ErrInfeasible when no
// hard-guarantee allocation exists for the flagged demands.
func Harden(in *alloc.Input, opts ScheduleOptions, a alloc.Allocation) (alloc.Allocation, error) {
	if opts.MaxFail <= 0 {
		opts.MaxFail = 2
	}
	hard := make(map[int]bool)
	for {
		weak := 0
		for _, d := range in.Demands {
			if hard[d.ID] {
				continue
			}
			ok, err := alloc.Satisfies(in, a, d, opts.MaxFail)
			if err != nil {
				return nil, err
			}
			if !ok {
				hard[d.ID] = true
				weak++
			}
		}
		if weak == 0 {
			return a, nil
		}
		var err error
		if a, err = scheduleHardened(in, opts, hard); err != nil {
			return nil, err
		}
	}
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

// scheduleHardened solves the scheduling LP with hard full-delivery
// constraints for the flagged demands and the usual relaxation for the
// rest (buildScheduleLP with hard).
func scheduleHardened(in *alloc.Input, opts ScheduleOptions, hard map[int]bool) (alloc.Allocation, error) {
	p := lp.NewProblem()
	fv, _, err := buildScheduleLP(p, in, opts.MaxFail, alloc.FullCapacities(in), hard, nil)
	if err != nil {
		return nil, err
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("bate: hardened schedule: %w", err)
	}
	return fv.Extract(sol), nil
}

// addHardGuarantee requires full delivery of d in the most probable
// tunnel-state classes until their cumulative probability reaches the
// demand's target. Returns lp.ErrInfeasible if even the total class
// mass under the pruning depth cannot reach the target.
func addHardGuarantee(p *lp.Problem, in *alloc.Input, fv alloc.FlowVars, d *demand.Demand, maxFail int) error {
	cached, _, err := in.Classes(d, maxFail)
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
		for pi, pr := range d.Pairs {
			if pr.Bandwidth <= 0 {
				continue
			}
			terms := fv.ClassTerms(nil, in, d, pi, cls)
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
