package bate

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/routing"
)

// AdmissionMethod labels which step of the §3.2 strategy admitted a
// demand.
type AdmissionMethod string

// Admission methods.
const (
	MethodFixed      AdmissionMethod = "fixed"      // step (1): residual capacity
	MethodConjecture AdmissionMethod = "conjecture" // step (2): Algorithm 1
	MethodRejected   AdmissionMethod = "rejected"
	MethodOptimal    AdmissionMethod = "optimal" // Appendix A MILP
)

// AdmissionResult reports an admission decision.
type AdmissionResult struct {
	Admitted bool
	Method   AdmissionMethod
	// NewAlloc is the first-time allocation for the new demand
	// (possibly temporary and below the demanded bandwidth after a
	// conjecture admit; the periodic scheduler will fix it, see §3.2
	// footnote 5).
	NewAlloc [][]float64
	Elapsed  time.Duration
}

// AdmitFixed implements step (1): holding the allocation of every
// admitted demand fixed, can the new demand meet its bandwidth and
// availability target with the remaining capacity alone? The check is
// a hard guarantee: when the Eq. 3-4 relaxation certifies availability
// that the extracted allocation does not truly achieve, the LP is
// re-solved with explicit full-delivery class constraints before
// admitting. On success it returns the cheapest such allocation.
func AdmitFixed(in *alloc.Input, current alloc.Allocation, d *demand.Demand, maxFail int) (*AdmissionResult, error) {
	start := time.Now()
	residual := current.ResidualCapacities(in)
	one := in.WithDemands([]*demand.Demand{d})

	// hard is nil for the relaxed trial and {d} for the fallback.
	solve := func(hard map[int]bool) ([][]float64, error) {
		p := lp.NewProblem()
		fv, _, err := buildScheduleLP(p, one, maxFail, residual, hard, nil)
		if err != nil {
			return nil, err
		}
		sol, err := p.Solve()
		if err != nil {
			return nil, err
		}
		return fv.Extract(sol)[d.ID], nil
	}

	res := &AdmissionResult{}
	rows, err := solve(nil)
	if err == nil && d.Target > 0 {
		// Posterior check against the true achieved availability.
		trial := alloc.Allocation{d.ID: rows}
		ok, satErr := alloc.Satisfies(one, trial, d, maxFail)
		if satErr != nil {
			return nil, satErr
		}
		if !ok {
			rows, err = solve(map[int]bool{d.ID: true})
		}
	}
	res.Elapsed = time.Since(start)
	if err != nil {
		res.Method = MethodRejected
		return res, nil
	}
	res.Admitted = true
	res.Method = MethodFixed
	res.NewAlloc = rows
	return res, nil
}

// Conjecture implements Algorithm 1: a greedy feasibility conjecture
// over all demands (admitted plus the new one) against the full
// network capacity. It returns true iff every demand can be greedily
// packed while its availability estimate s_d stays at or above β_d.
// Theorem 1: a true return guarantees a satisfying allocation exists.
func Conjecture(in *alloc.Input, demands []*demand.Demand) bool {
	// Remaining link capacities.
	capRem := alloc.FullCapacities(in)
	remaining := append([]*demand.Demand(nil), demands...)
	// Process in increasing Σ_k b_k·β order (line 2).
	sort.Slice(remaining, func(i, j int) bool {
		wi, wj := remaining[i].Weight(), remaining[j].Weight()
		if wi != wj {
			return wi < wj
		}
		return remaining[i].ID < remaining[j].ID
	})
	for _, d := range remaining {
		sd := 1.0
		for pi, pr := range d.Pairs {
			need := pr.Bandwidth
			if need <= 0 {
				continue
			}
			tunnels := in.TunnelsFor(d, pi)
			// Line 4: give up if the pair's remaining capacity cannot
			// cover the demand (upper bound: Σ tunnel bottlenecks,
			// refreshed as links drain inside the loop below).
			avail := make([]bool, len(tunnels))
			for i := range avail {
				avail[i] = true
			}
			for need > 1e-9 {
				// Pick the usable tunnel with the smallest
				// c_t · p_t product (line 8).
				best, bestScore := -1, math.Inf(1)
				for ti, t := range tunnels {
					if !avail[ti] {
						continue
					}
					ct := bottleneck(capRem, t)
					if ct <= 1e-9 {
						avail[ti] = false
						continue
					}
					score := ct * tunnelAvailability(in, t)
					if score < bestScore {
						bestScore = score
						best = ti
					}
				}
				if best < 0 {
					return false // line 4-5: not enough capacity
				}
				t := tunnels[best]
				f := math.Min(bottleneck(capRem, t), need)
				for _, e := range t.Links {
					capRem[e] -= f
				}
				avail[best] = false // line 10: T' = T' \ t
				sd *= tunnelAvailability(in, t)
				need -= f
			}
		}
		if d.Target > 0 && sd < d.Target {
			return false // line 14-15
		}
	}
	return true
}

// tunnelAvailability is Alg. 1's per-tunnel availability p_t under the
// input's failure model: the product of the tunnel's link up
// probabilities, times (1 − p_g) for every risk group touching it. With
// no groups it is routing.Tunnel.Availability.
func tunnelAvailability(in *alloc.Input, t routing.Tunnel) float64 {
	av := t.Availability(in.Net)
	for _, g := range in.Groups {
		for _, e := range g.Links {
			if t.Uses(e) {
				av *= 1 - g.Prob
				break
			}
		}
	}
	return av
}

func bottleneck(capRem []float64, t routing.Tunnel) float64 {
	c := math.Inf(1)
	for _, e := range t.Links {
		if capRem[e] < c {
			c = capRem[e]
		}
	}
	return c
}

// Admit runs the full three-step admission strategy of §3.2 for a new
// demand d given the currently admitted demands and their allocation:
// (1) try the fixed-allocation check; (2) fall back to the Algorithm 1
// conjecture, admitting with a temporary best-effort allocation from
// residual capacity; (3) reject.
func Admit(in *alloc.Input, current alloc.Allocation, admitted []*demand.Demand, d *demand.Demand, maxFail int) (*AdmissionResult, error) {
	start := time.Now()
	res, err := AdmitFixed(in, current, d, maxFail)
	if err != nil {
		return nil, err
	}
	if res.Admitted {
		return res, nil
	}
	all := append(append([]*demand.Demand(nil), admitted...), d)
	if Conjecture(in, all) {
		// Temporary allocation from residual capacity, as much as fits
		// (§3.2 step 2; may be below the demanded bandwidth until the
		// next scheduling round).
		tmp := greedyFill(in, current.ResidualCapacities(in), d)
		return &AdmissionResult{
			Admitted: true,
			Method:   MethodConjecture,
			NewAlloc: tmp,
			Elapsed:  time.Since(start),
		}, nil
	}
	return &AdmissionResult{Method: MethodRejected, Elapsed: time.Since(start)}, nil
}

// greedyFill packs as much of d's demand as possible into the residual
// capacities, preferring high-availability tunnels.
func greedyFill(in *alloc.Input, capRem []float64, d *demand.Demand) [][]float64 {
	rows := make([][]float64, len(d.Pairs))
	for pi, pr := range d.Pairs {
		tunnels := in.TunnelsFor(d, pi)
		rows[pi] = make([]float64, len(tunnels))
		order := make([]int, len(tunnels))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return tunnels[order[a]].Availability(in.Net) > tunnels[order[b]].Availability(in.Net)
		})
		need := pr.Bandwidth
		for _, ti := range order {
			if need <= 1e-9 {
				break
			}
			f := math.Min(bottleneck(capRem, tunnels[ti]), need)
			if f <= 0 {
				continue
			}
			rows[pi][ti] = f
			for _, e := range tunnels[ti].Links {
				capRem[e] -= f
			}
			need -= f
		}
	}
	return rows
}

// AdmitOptimal solves the Appendix A MILP for online admission: with
// every previously admitted demand pinned to acceptance (FCFS, no
// preemption), maximize acceptance of the new demand. It returns
// whether the new demand is admitted and, if so, a full reallocation
// satisfying everyone.
func AdmitOptimal(in *alloc.Input, admitted []*demand.Demand, d *demand.Demand, maxFail int) (*AdmissionResult, alloc.Allocation, error) {
	start := time.Now()
	all := append(append([]*demand.Demand(nil), admitted...), d)
	full := in.WithDemands(all)

	p := lp.NewProblem()
	p.SetMaximize()
	fv := alloc.AddFlowVars(p, full, alloc.FullCapacities(full), nil)
	aNew := p.AddBinary(fmt.Sprintf("a[d%d]", d.ID), 1)
	for _, dd := range all {
		pinned := dd.ID != d.ID
		if err := addQualifiedScenarioConstraints(p, full, fv, dd, maxFail, aNew, pinned); err != nil {
			return nil, nil, err
		}
	}
	// Bound the branch & bound so a pathological instance degrades to a
	// best-effort incumbent instead of stalling the control loop; the
	// up-branch-first dive finds an integral admit certificate within
	// roughly one dive when one exists.
	sol, err := p.SolveOpts(lp.Options{MaxNodes: 40})
	res := &AdmissionResult{Method: MethodOptimal, Elapsed: time.Since(start)}
	if err != nil {
		switch {
		case sol != nil && sol.Status == lp.Infeasible:
			// Even the pinned demands cannot be satisfied; reject.
			res.Method = MethodRejected
			return res, nil, nil
		case sol != nil && sol.Status == lp.IterLimit && len(sol.Values()) > 0:
			// Node budget exhausted with an incumbent: use it.
		case sol != nil && sol.Status == lp.IterLimit:
			// Inconclusive within budget: reject conservatively.
			res.Method = MethodRejected
			return res, nil, nil
		default:
			return nil, nil, fmt.Errorf("bate: optimal admission: %w", err)
		}
	}
	if sol.Value(aNew) < 0.5 {
		res.Method = MethodRejected
		return res, nil, nil
	}
	res.Admitted = true
	a := fv.Extract(sol)
	res.NewAlloc = a[d.ID]
	return res, a, nil
}

// addQualifiedScenarioConstraints adds the Appendix A machinery for
// one demand: q per tunnel-state class with delivered ≥ b·q, and
// Σ p·q ≥ β gated on acceptance. The new demand's q variables are
// binary (a scenario either qualifies or not); previously admitted
// demands are pinned to acceptance with the same continuous relaxation
// the periodic scheduler applies (Eq. 3-4), which keeps the MILP's
// binary count independent of the admitted-set size.
func addQualifiedScenarioConstraints(p *lp.Problem, in *alloc.Input, fv alloc.FlowVars, d *demand.Demand, maxFail int, aVar lp.VarID, pinned bool) error {
	if d.Target <= 0 {
		return nil
	}
	classes, _, err := in.Classes(d, maxFail)
	if err != nil {
		return err
	}
	availTerms := make([]lp.Term, 0, len(classes))
	for ci, cls := range classes {
		var q lp.VarID
		if pinned {
			q = p.AddVariable(fmt.Sprintf("q[d%d,c%d]", d.ID, ci), 0, 1, 0)
		} else {
			// Rewarding covered probability steers the feasibility
			// dive toward the most probable classes first.
			q = p.AddBinary(fmt.Sprintf("q[d%d,c%d]", d.ID, ci), cls.Prob)
		}
		availTerms = append(availTerms, lp.Term{Var: q, Coef: cls.Prob})
		for pi, pr := range d.Pairs {
			if pr.Bandwidth <= 0 {
				continue
			}
			terms := append(fv.ClassTerms(nil, in, d, pi, cls), lp.Term{Var: q, Coef: -pr.Bandwidth})
			p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: 0})
		}
	}
	if pinned {
		p.AddConstraint(lp.Constraint{Terms: availTerms, Op: lp.GE, RHS: d.Target})
	} else {
		// Σ p·q - β·a ≥ 0: acceptance requires the availability target.
		terms := append(availTerms, lp.Term{Var: aVar, Coef: -d.Target})
		p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: 0})
	}
	return nil
}
