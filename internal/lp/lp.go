// Package lp provides a self-contained linear-programming and
// mixed-integer-linear-programming solver used by BATE's traffic
// scheduling (Eq. 7), optimal admission control (Appendix A) and
// failure recovery (Eq. 12). It substitutes for the commercial solver
// (Gurobi) used in the paper.
//
// Every solve runs on a sparse bounded-variable revised simplex — CSC
// matrix, product-form basis with O(nnz) refactorization, primal and
// dual iterations, and warm starts from a name-keyed Basis of this or a
// neighbouring problem (sparse.go, basis.go, revised.go). A solve whose
// refactorization fails numerically ends with ErrNumerical. A dense
// two-phase primal simplex tableau with Dantzig pivoting and a Bland
// anti-cycling fallback (simplex.go) is kept as the reference that
// tests hold the revised engine to: only SolveReference and the
// cross-check (CrosscheckFromEnv) reach it, and no binary links it.
// The MILP solver is a depth-first branch & bound over the LP
// relaxation, each child warm-started from its parent's basis. Problem
// sizes in BATE are moderate (hundreds to a few thousands of rows)
// after scenario aggregation.
package lp

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
// concurrent mutation; solves of an unchanging problem may overlap.
//
// A problem keeps what its solves build for the next one: the matrix
// (until a variable or row is added), the arrays of the matrix it
// outgrew, and the working state of its last revised solve, which the
// next revised solve takes over instead of allocating its own. Reset
// keeps all of it, so a problem emptied and rebuilt every round solves
// in the memory of the round before. What a solve returns never shares
// it.
type Problem struct {
	vars     []variable
	cons     []Constraint
	maximize bool
	mat      atomic.Pointer[matrix] // nil until a revised solve, and after a new variable or row

	// A solve takes either by swapping it out, so overlapping solves
	// never share one: the one that finds it gone allocates its own.
	oldMat atomic.Pointer[matrix]  // the matrix the problem outgrew, rebuilt into
	spare  atomic.Pointer[revised] // a finished revised solve's working state
}

// matrix is a problem's constraint matrix as the revised engine reads
// it. It is built on the first revised solve and shared, read-only, by
// every later solve and branch-and-bound node of the problem until a
// variable or row is added.
type matrix struct {
	csc      *cscMatrix
	slackCol []int32
	csrOnce  sync.Once
	csr      *cscMatrix // row-wise copy of csc, built on first use

	// Kept for the next build: the last row-wise copy's arrays and the
	// scratch of build (acc all zero).
	oldCSR        *cscMatrix
	acc           []float64
	touched, next []int32
}

// matrix returns p's matrix, building it if needed, into the arrays of
// the one it outgrew when it has them. Overlapping first solves may
// each build one; every copy is the same.
func (p *Problem) matrix() *matrix {
	if mx := p.mat.Load(); mx != nil {
		return mx
	}
	mx := p.oldMat.Swap(nil)
	if mx == nil {
		mx = &matrix{csc: &cscMatrix{}}
	}
	mx.build(p)
	p.mat.Store(mx)
	return mx
}

// dropMatrix retires a matrix the problem has outgrown, keeping it for
// the next build. Building a problem drops none, so it pays no atomic
// store per variable or row.
func (p *Problem) dropMatrix() {
	if mx := p.mat.Load(); mx != nil {
		p.mat.Store(nil)
		p.oldMat.Store(mx)
	}
}

// rows returns the row-wise copy of the matrix.
func (mx *matrix) rows() *cscMatrix {
	mx.csrOnce.Do(func() {
		t := mx.oldCSR
		if t == nil {
			t = &cscMatrix{}
		}
		mx.csc.transposeInto(t)
		mx.csr = t
	})
	return mx.csr
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem { return &Problem{} }

// Reset empties the problem — no variables, no rows, minimization — for
// reassembly, keeping every buffer: the variable and row arrays, the
// matrix's arrays and the spare solver state. Constraints added after
// it may reuse the Terms arrays of the ones before. Reset must not
// overlap a solve of p; what earlier solves returned stays valid.
func (p *Problem) Reset() {
	p.vars = p.vars[:0]
	p.cons = p.cons[:0]
	p.maximize = false
	p.dropMatrix()
}

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
	p.dropMatrix()
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

// Bounds returns fresh copies of every variable's lower and upper
// bounds, indexed by VarID.
func (p *Problem) Bounds() (lo, hi []float64) {
	lo, hi = make([]float64, len(p.vars)), make([]float64, len(p.vars))
	for j, v := range p.vars {
		lo[j], hi[j] = v.lower, v.upper
	}
	return lo, hi
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
	p.dropMatrix()
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
	// Numerical means a refactorization of the basis failed: the
	// solve stopped with no verdict and no values.
	Numerical
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
	case Numerical:
		return "numerical"
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
	// basis (revised engine only; for a MILP, at the root relaxation).
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
	ErrNumerical  = errors.New("lp: numerical failure")
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
func (p *Problem) Solve() (*Solution, error) { return p.SolveOpts(Options{}) }
