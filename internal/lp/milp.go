package lp

import "math"

// intTol is the integrality tolerance for branch & bound.
const intTol = 1e-6

// defaultMaxNodes bounds the branch & bound search.
const defaultMaxNodes = 200000

type bbNode struct {
	lo, hi []float64
	// warm is the parent relaxation's optimal basis; a child's LP
	// differs only in one variable bound, so the revised engine can
	// usually restore feasibility in a few dual pivots instead of a
	// cold two-phase solve.
	warm *Basis
}

// nodeSolver solves one node's LP relaxation under bounds lo/hi.
type nodeSolver func(p *Problem, lo, hi []float64, opts Options) (*Solution, error)

// solveMILPOpts honours integral variables via depth-first branch &
// bound on the LP relaxation, each node solved by solve. It runs the
// search from root bounds rootLo/rootHi, or the variables' own bounds
// where they are nil. The nodes copy them, so the caller's slices are
// never written.
func (p *Problem) solveMILPOpts(rootLo, rootHi []float64, opts Options, solve nodeSolver) (*Solution, error) {
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = defaultMaxNodes
	}
	if rootLo == nil || rootHi == nil {
		rootLo, rootHi = p.Bounds()
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
		hitLimit     bool
		rootWarm     bool // the root relaxation used opts.Warm
	)
	nodeOpts := Options{Pivot: opts.Pivot, Cancel: opts.Cancel}
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
		relax, err := solve(p, nd.lo, nd.hi, nodeOpts)
		pivots += relax.Iterations
		if nodes == 1 {
			rootWarm = relax.WarmStarted
		}
		if err != nil {
			if relax.Status == Unbounded {
				// An unbounded relaxation at the root means the MILP is
				// unbounded (or the formulation is broken); deeper nodes
				// cannot be unbounded if the root was not.
				return &Solution{Status: Unbounded, Nodes: nodes, Iterations: pivots}, ErrUnbounded
			}
			if relax.Status == Infeasible {
				continue // infeasible branch
			}
			// Any other failure (an abort, the pivot cap, a numerical
			// bail) leaves the subtree unsearched: pruning it would
			// silently return a wrong "optimal". Surface the best
			// incumbent so far under the node's status.
			sol := &Solution{Status: relax.Status, Nodes: nodes, Iterations: pivots}
			if incumbent != nil {
				sol.Objective = incumbent.Objective
				sol.values = incumbent.values
			}
			return sol, err
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
			if sign*obj < incumbentVal {
				incumbentVal = sign * obj
				incumbent = &Solution{Status: Optimal, Objective: obj, values: vals}
			}
			continue
		}
		x := relax.values[branch]
		// Down branch: x <= floor; up branch: x >= ceil. Push down
		// last so it is explored first (DFS dives toward 0 first,
		// which empirically prunes well for BATE's accept/reject
		// binaries when maximizing acceptance).
		var childWarm *Basis
		if !opts.ColdStart {
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
	incumbent.Nodes = nodes
	incumbent.Iterations = pivots
	incumbent.WarmStarted = rootWarm
	if hitLimit {
		// Best-effort incumbent: report it but flag the limit.
		incumbent.Status = IterLimit
		return incumbent, ErrIterLimit
	}
	return incumbent, nil
}
