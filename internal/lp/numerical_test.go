package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// illConditionedLP is a seeded LP the revised engine cannot always
// factor: random dense columns in [-2, 2], one to three of them scaled
// by a factor in [1e-9, 1e-8], variables in [0, 1e12], rows of random
// operator and RHS. With pivotTol (1e-9) below singularTol (1e-8) the
// ratio test can admit a pivot on a scaled column that the next
// refactorization rejects.
func illConditionedLP(seed int64, nLo, nHi, mLo, mHi int) *Problem {
	rng := rand.New(rand.NewSource(seed))
	n := nLo + rng.Intn(nHi-nLo+1)
	m := mLo + rng.Intn(mHi-mLo+1)
	scale := make([]float64, n)
	for j := range scale {
		scale[j] = 1
	}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		scale[rng.Intn(n)] = 1e-9 + 9e-9*rng.Float64()
	}
	p := NewProblem()
	if rng.Intn(2) == 0 {
		p.SetMaximize()
	}
	for j := 0; j < n; j++ {
		p.AddVariable(fmt.Sprintf("x%d", j), 0, 1e12, -1+2*rng.Float64())
	}
	for i := 0; i < m; i++ {
		terms := make([]Term, n)
		for j := range terms {
			terms[j] = Term{Var: VarID(j), Coef: (-2 + 4*rng.Float64()) * scale[j]}
		}
		p.AddConstraint(Constraint{Name: fmt.Sprintf("c%d", i), Terms: terms, Op: Op(rng.Intn(3)), RHS: -10 + 20*rng.Float64()})
	}
	return p
}

// maxRowViolation is how far x breaks p's worst row.
func maxRowViolation(p *Problem, x []float64) float64 {
	worst := 0.0
	for _, c := range p.cons {
		s := 0.0
		for _, t := range c.Terms {
			s += t.Coef * x[t.Var]
		}
		switch c.Op {
		case LE:
			worst = max(worst, s-c.RHS)
		case GE:
			worst = max(worst, c.RHS-s)
		case EQ:
			worst = max(worst, math.Abs(s-c.RHS))
		}
	}
	return worst
}

// requireNumerical solves p and fails unless the solve bails
// numerically: the typed error and status, no values, and no pivot on
// the tableau (beyond the cross-check's own).
func requireNumerical(t *testing.T, label string, p *Problem) {
	t.Helper()
	dense := pivotsDense.Load()
	sol, err := p.SolveOpts(Options{})
	if err == nil {
		t.Fatalf("%s: solve returned %v with objective %g, worst row off by %g; want ErrNumerical",
			label, sol.Status, sol.Objective, maxRowViolation(p, sol.Values()))
	}
	if !errors.Is(err, ErrNumerical) || sol.Status != Numerical {
		t.Fatalf("%s: status %v, err %v after %d pivots; want ErrNumerical", label, sol.Status, err, sol.Iterations)
	}
	if len(sol.Values()) != 0 {
		t.Fatalf("%s: a numerical bail returned %d values", label, len(sol.Values()))
	}
	if d := pivotsDense.Load() - dense; d != 0 && crosscheck == nil {
		t.Fatalf("%s: %d pivots on the tableau", label, d)
	}
}

// A refactorization that fails after a small pivot (the primal's or
// the dual's retry) ends the solve with ErrNumerical. These seeds of
// the first 121 reached it (n 3-22, m 2-13).
func TestNumericalBailEndsSolve(t *testing.T) {
	for _, seed := range []int64{11, 17, 76, 117} {
		requireNumerical(t, fmt.Sprintf("seed %d", seed), illConditionedLP(seed, 3, 22, 2, 13))
	}
}

// A periodic refactorization that fails ends the solve too, instead of
// pivoting on: on these seeds (n, m 20-79) the solve went on to report
// an optimum that breaks a row by 89.7 (226), or ran to the pivot cap
// (969, 2780).
func TestPeriodicRefactorFailureEndsSolve(t *testing.T) {
	for _, seed := range []int64{226, 969, 2780} {
		requireNumerical(t, fmt.Sprintf("seed %d", seed), illConditionedLP(seed, 20, 79, 20, 79))
	}
}

// Only an infeasible node prunes its subtree: a node that stops at the
// pivot cap, bails numerically or aborts ends the branch and bound with
// its own status and error.
func TestNodeErrorEndsBranchAndBound(t *testing.T) {
	p := randomKnapsack(0)
	full, err := p.SolveOpts(Options{})
	if err != nil || full.Nodes < 3 {
		t.Fatalf("knapsack: err %v after %d nodes, want an optimum past node 2", err, full.Nodes)
	}
	for _, tc := range []struct {
		st  Status
		err error
	}{{IterLimit, ErrIterLimit}, {Numerical, ErrNumerical}, {Aborted, ErrAborted}} {
		node := 0
		failAt2 := func(p *Problem, lo, hi []float64, opts Options) (*Solution, error) {
			if node++; node == 2 {
				return &Solution{Status: tc.st}, tc.err
			}
			return p.solveLPWith(lo, hi, opts)
		}
		sol, err := p.solveMILPOpts(nil, nil, Options{}, failAt2)
		if !errors.Is(err, tc.err) || sol.Status != tc.st || sol.Nodes != 2 {
			t.Fatalf("node 2 %v: got %v (err %v) after %d nodes, want it surfaced at node 2", tc.st, sol.Status, err, sol.Nodes)
		}
	}
}
