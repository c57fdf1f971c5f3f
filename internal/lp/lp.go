// Package lp provides a self-contained linear-programming and
// mixed-integer-linear-programming solver used by BATE's traffic
// scheduling (Eq. 7), optimal admission control (Appendix A) and
// failure recovery (Eq. 12). It substitutes for the commercial solver
// (Gurobi) used in the paper.
//
// Two engines sit behind Options.Engine: a dense two-phase primal
// simplex tableau with Dantzig pivoting and a Bland anti-cycling
// fallback (the reference, simplex.go), and a sparse bounded-variable
// revised simplex — CSC matrix, product-form basis with O(nnz)
// refactorization, primal and dual iterations, and warm starts from a
// name-keyed Basis of this or a neighbouring problem (sparse.go,
// basis.go, revised.go) — which the scheduling rounds run on. The
// MILP solver is a depth-first branch & bound over the LP relaxation,
// each child warm-started from its parent's basis. Problem sizes in
// BATE are moderate (hundreds to a few thousands of rows) after
// scenario aggregation.
package lp

import (
	"errors"
	"fmt"
	"math"
)

// Op is a constraint comparison operator.
type Op int8

// Constraint operators.
const (
	LE Op = iota // <=
	GE           // >=
	EQ           // ==
)

func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	}
	return "?"
}

// VarID indexes a variable within a Problem.
type VarID int

// Term is one coefficient of a linear expression.
type Term struct {
	Var  VarID
	Coef float64
}

// Constraint is a linear constraint sum(Terms) Op RHS.
type Constraint struct {
	Name  string
	Terms []Term
	Op    Op
	RHS   float64
}

// variable holds per-variable problem data.
type variable struct {
	name     string
	lower    float64 // >= 0 after model normalization
	upper    float64 // may be +Inf
	cost     float64
	integral bool
}

// Problem is a linear (or mixed-integer) program. The zero value is a
// minimization problem with no variables. Problems are not safe for
// concurrent mutation.
type Problem struct {
	vars     []variable
	cons     []Constraint
	maximize bool
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// SetMaximize switches the problem to maximization.
func (p *Problem) SetMaximize() { p.maximize = true }

// AddVariable adds a continuous variable with bounds [lower, upper]
// and objective coefficient cost, returning its id. Lower must be
// finite and >= 0 (BATE's variables are all nonnegative); upper may be
// math.Inf(1).
func (p *Problem) AddVariable(name string, lower, upper, cost float64) VarID {
	if lower < 0 || math.IsInf(lower, 1) || math.IsNaN(lower) {
		panic(fmt.Sprintf("lp: variable %s: invalid lower bound %v", name, lower))
	}
	if upper < lower {
		panic(fmt.Sprintf("lp: variable %s: upper %v < lower %v", name, upper, lower))
	}
	p.vars = append(p.vars, variable{name: name, lower: lower, upper: upper, cost: cost})
	return VarID(len(p.vars) - 1)
}

// AddBinary adds a binary (0/1 integral) variable.
func (p *Problem) AddBinary(name string, cost float64) VarID {
	id := p.AddVariable(name, 0, 1, cost)
	p.vars[id].integral = true
	return id
}

// SetIntegral marks an existing variable as integral.
func (p *Problem) SetIntegral(v VarID) { p.vars[v].integral = true }

// SetCost overwrites the objective coefficient of v.
func (p *Problem) SetCost(v VarID, cost float64) { p.vars[v].cost = cost }

// SetBounds overwrites the bounds of v.
func (p *Problem) SetBounds(v VarID, lower, upper float64) {
	if lower < 0 || upper < lower {
		panic(fmt.Sprintf("lp: SetBounds(%v, %v, %v): invalid", v, lower, upper))
	}
	p.vars[v].lower = lower
	p.vars[v].upper = upper
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.vars) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.cons) }

// HasIntegers reports whether any variable is marked integral.
func (p *Problem) HasIntegers() bool {
	for _, v := range p.vars {
		if v.integral {
			return true
		}
	}
	return false
}

// AddConstraint appends a constraint. Terms referring to out-of-range
// variables, non-finite coefficients, and non-finite RHS values panic
// (like AddVariable) so modelling bugs surface at the call site rather
// than as mysterious pivot behaviour. Duplicate variables within one
// constraint are summed.
func (p *Problem) AddConstraint(c Constraint) {
	for _, t := range c.Terms {
		if t.Var < 0 || int(t.Var) >= len(p.vars) {
			panic(fmt.Sprintf("lp: constraint %s: unknown variable %d", c.Name, t.Var))
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			panic(fmt.Sprintf("lp: constraint %s: invalid coefficient %v for variable %d", c.Name, t.Coef, t.Var))
		}
	}
	if math.IsNaN(c.RHS) || math.IsInf(c.RHS, 0) {
		panic(fmt.Sprintf("lp: constraint %s: invalid RHS %v", c.Name, c.RHS))
	}
	p.cons = append(p.cons, c)
}

// Status reports the outcome of a solve.
type Status int8

// Solver statuses.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
	IterLimit
	// Aborted means Options.Cancel asked the solve to stop
	// mid-iteration (deadline hit, chaos budget fired). The partial
	// state is discarded; callers keep their previous allocation.
	Aborted
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration-limit"
	case Aborted:
		return "aborted"
	}
	return "unknown"
}

// Solution holds the result of solving a Problem.
type Solution struct {
	Status    Status
	Objective float64
	values    []float64
	duals     []float64
	// Iterations counts simplex pivots (LP) or total pivots across
	// all branch-and-bound nodes (MILP).
	Iterations int
	// Nodes counts branch-and-bound nodes explored (1 for pure LPs).
	Nodes int
	// WarmStarted reports whether the solve reused a supplied warm
	// basis (revised engine only).
	WarmStarted bool
	// WarmFallback names why a supplied warm basis was abandoned for a
	// cold solve: "pivot-cap" (the repair ran past its pivot cap),
	// "singular" (a refactorization failed numerically) or "infeasible"
	// (a warm infeasibility verdict, cold-confirmed). Empty when the
	// warm start held or none was supplied.
	WarmFallback string
	basis        *Basis
}

// Basis returns the optimal simplex basis when the solve used the
// revised engine and reached optimality, or nil otherwise. Pass it back
// via Options.Warm to warm-start a later solve of the same problem or
// of one that shares column and row names with it.
func (s *Solution) Basis() *Basis { return s.basis }

// Value returns the optimal value of variable v.
func (s *Solution) Value(v VarID) float64 { return s.values[v] }

// Values returns the full solution vector indexed by VarID. The slice
// must not be modified.
func (s *Solution) Values() []float64 { return s.values }

// Errors returned by Solve.
var (
	ErrInfeasible = errors.New("lp: problem is infeasible")
	ErrUnbounded  = errors.New("lp: problem is unbounded")
	ErrIterLimit  = errors.New("lp: iteration limit exceeded")
	ErrAborted    = errors.New("lp: solve aborted")
)

const (
	eps = 1e-9
	// blandThreshold switches from Dantzig to Bland pivoting to break
	// degenerate cycles.
	blandThreshold = 2000
	maxPivots      = 200000
	// cancelCheckEvery bounds how many simplex pivots (primal or
	// dual) run between Options.Cancel polls: cheap enough to be
	// free, frequent enough that a deadline abort lands within
	// microseconds of firing.
	cancelCheckEvery = 64
)

// Solve solves the problem. Integral variables are honoured via branch
// & bound; pure LPs go straight to the simplex. The returned Solution
// always carries a Status; err is non-nil iff Status != Optimal.
func (p *Problem) Solve() (*Solution, error) {
	if p.HasIntegers() {
		return p.solveMILP()
	}
	return p.solveLPWith(nil, nil, Options{})
}
