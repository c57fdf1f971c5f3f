package lp

import "math"

// intTol is the integrality tolerance for branch & bound.
const intTol = 1e-6

// defaultMaxNodes bounds the branch & bound search.
const defaultMaxNodes = 200000

// solveMILP solves the problem honouring integral variables via
// depth-first branch & bound on the LP relaxation.
func (p *Problem) solveMILP() (*Solution, error) {
	return p.solveMILPOpts(Options{})
}

// (FirstIncumbent handling lives in solveMILPOpts: feasibility-style
// searches return the first integral solution instead of proving
// optimality.)

type bbNode struct {
	lo, hi []float64
	// warm is the parent relaxation's optimal basis; a child's LP
	// differs only in one variable bound, so the revised engine can
	// usually restore feasibility in a few dual pivots instead of a
	// cold two-phase solve.
	warm *Basis
}

func (p *Problem) solveMILPOpts(opts Options) (*Solution, error) {
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}
	ns := len(p.vars)
	rootLo := make([]float64, ns)
	rootHi := make([]float64, ns)
	for j, v := range p.vars {
		rootLo[j], rootHi[j] = v.lower, v.upper
	}

	// Internally minimize; flip the sign for maximization problems at
	// the comparison points (Solution.Objective is already sense-true
	// because solveLP computes c'x directly).
	sign := 1.0
	if p.maximize {
		sign = -1
	}

	var (
		incumbent    *Solution
		incumbentVal = math.Inf(1) // sign-adjusted (minimization view)
		nodes        int
		pivots       int
		anyFeasible  bool
		hitLimit     bool
	)
	eng := opts.Engine.resolve(opts.Warm)
	nodeOpts := Options{Pivot: opts.Pivot, Engine: eng, Cancel: opts.Cancel}
	stack := []bbNode{{lo: rootLo, hi: rootHi, warm: opts.Warm}}
	for len(stack) > 0 {
		if nodes >= maxNodes {
			hitLimit = true
			break
		}
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nodes++

		nodeOpts.Warm = nd.warm
		relax, err := p.solveLPWith(nd.lo, nd.hi, nodeOpts)
		pivots += relax.Iterations
		if err != nil {
			if relax.Status == Unbounded {
				// An unbounded relaxation at the root means the MILP is
				// unbounded (or the formulation is broken); deeper nodes
				// cannot be unbounded if the root was not.
				return &Solution{Status: Unbounded, Nodes: nodes, Iterations: pivots}, ErrUnbounded
			}
			if relax.Status == Aborted {
				// A deadline/budget abort is not an infeasible branch:
				// pruning here would silently return a wrong "optimal".
				// Surface the best incumbent so far as aborted.
				sol := &Solution{Status: Aborted, Nodes: nodes, Iterations: pivots}
				if incumbent != nil {
					sol.Objective = incumbent.Objective
					sol.values = incumbent.values
				}
				return sol, ErrAborted
			}
			continue // infeasible branch
		}
		bound := sign * relax.Objective
		if bound >= incumbentVal-1e-9 {
			continue // cannot improve
		}
		// Find the most fractional integral variable.
		branch := -1
		bestFrac := intTol
		for j, v := range p.vars {
			if !v.integral {
				continue
			}
			x := relax.values[j]
			f := math.Abs(x - math.Round(x))
			if f > bestFrac {
				bestFrac = f
				branch = j
			}
		}
		if branch < 0 {
			// Integral solution; round off tolerance noise.
			vals := append([]float64(nil), relax.values...)
			obj := 0.0
			for j, v := range p.vars {
				if v.integral {
					vals[j] = math.Round(vals[j])
				}
				obj += v.cost * vals[j]
			}
			anyFeasible = true
			if sign*obj < incumbentVal {
				incumbentVal = sign * obj
				incumbent = &Solution{Status: Optimal, Objective: obj, values: vals}
			}
			if opts.FirstIncumbent {
				break
			}
			continue
		}
		x := relax.values[branch]
		// Down branch: x <= floor; up branch: x >= ceil. Push down
		// last so it is explored first (DFS dives toward 0 first,
		// which empirically prunes well for BATE's accept/reject
		// binaries when maximizing acceptance).
		var childWarm *Basis
		if eng == EngineRevised && !opts.ColdStart {
			childWarm = relax.basis
		}
		up := bbNode{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...), warm: childWarm}
		up.lo[branch] = math.Ceil(x - intTol)
		down := bbNode{lo: append([]float64(nil), nd.lo...), hi: append([]float64(nil), nd.hi...), warm: childWarm}
		down.hi[branch] = math.Floor(x + intTol)
		if p.maximize {
			// Explore the up branch first when maximizing: binaries in
			// BATE's MILPs reward being 1.
			stack = append(stack, down, up)
		} else {
			stack = append(stack, up, down)
		}
	}
	if incumbent == nil {
		st := Infeasible
		err := ErrInfeasible
		if hitLimit {
			st, err = IterLimit, ErrIterLimit
		}
		return &Solution{Status: st, Nodes: nodes, Iterations: pivots}, err
	}
	_ = anyFeasible
	incumbent.Nodes = nodes
	incumbent.Iterations = pivots
	if hitLimit {
		// Best-effort incumbent: report it but flag the limit.
		incumbent.Status = IterLimit
		return incumbent, ErrIterLimit
	}
	return incumbent, nil
}
