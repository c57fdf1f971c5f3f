package lp

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// randomKnapsack builds a maximization MILP over a few binaries and one
// continuous variable under a few LE rows, the same one for the same i.
func randomKnapsack(i int) *Problem {
	rng := rand.New(rand.NewSource(int64(i) + 11))
	n, m := 4+rng.Intn(6), 1+rng.Intn(4)
	p := NewProblem()
	p.SetMaximize()
	for j := 0; j < n; j++ {
		p.AddBinary("b", rng.Float64()*10)
	}
	x := p.AddVariable("x", 0, 3, rng.Float64())
	for r := 0; r < m; r++ {
		terms := []Term{{x, rng.Float64()}}
		for j := 0; j < n; j++ {
			terms = append(terms, Term{VarID(j), rng.Float64() * 5})
		}
		p.AddConstraint(Constraint{Terms: terms, Op: LE, RHS: rng.Float64() * float64(n) * 2})
	}
	return p
}

// SolveBounded solves the problem with its bounds replaced, as SetBounds
// on a copy would (and as the tableau solves that copy), cold and warm
// from the relaxation's basis, and leaves the problem's own bounds
// alone.
func TestSolveBoundedMatchesSetBounds(t *testing.T) {
	for i := 0; i < 40; i++ {
		p := randomKnapsack(i)
		root, err := p.SolveRelaxation(Options{})
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := p.Bounds()
		wantLo, wantHi := slices.Clone(lo), slices.Clone(hi)
		rng := rand.New(rand.NewSource(int64(i)))
		for j := range hi {
			if rng.Intn(3) == 0 {
				hi[j] = 0
			}
		}
		q := randomKnapsack(i)
		for j := range hi {
			q.SetBounds(VarID(j), lo[j], hi[j])
		}
		want, werr := q.Solve()
		check := func(label string, got *Solution, err error) {
			if (err == nil) != (werr == nil) {
				t.Fatalf("case %d %s: err %v, want %v", i, label, err, werr)
			}
			if err == nil && math.Abs(got.Objective-want.Objective) > 1e-7 {
				t.Fatalf("case %d %s: objective %v, want %v", i, label, got.Objective, want.Objective)
			}
		}
		ref, err := SolveReference(q)
		check("tableau", ref, err)
		got, err := p.SolveBounded(lo, hi, Options{})
		check("cold", got, err)
		got, err = p.SolveBounded(lo, hi, Options{Warm: root.Basis()})
		check("warm", got, err)
		if lo2, hi2 := p.Bounds(); !slices.Equal(lo2, wantLo) || !slices.Equal(hi2, wantHi) {
			t.Fatalf("case %d: SolveBounded changed the problem's bounds", i)
		}
	}
}

// SolveRelaxation ignores integrality: it solves what the problem
// without its integral marks solves, and bounds the MILP's optimum.
func TestSolveRelaxation(t *testing.T) {
	for i := 0; i < 20; i++ {
		p := randomKnapsack(i)
		relax, err := p.SolveRelaxation(Options{})
		if err != nil {
			t.Fatal(err)
		}
		q := randomKnapsack(i)
		for j := range q.vars {
			q.vars[j].integral = false
		}
		want, err := q.Solve()
		if err != nil {
			t.Fatal(err)
		}
		milp, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(relax.Objective-want.Objective) > 1e-9 || relax.Objective < milp.Objective-1e-9 {
			t.Fatalf("case %d: relaxation %v, continuous problem %v, MILP %v", i, relax.Objective, want.Objective, milp.Objective)
		}
	}
}

// The matrix a revised solve builds is the problem's until it grows: a
// row or a variable added after a solve is in the next one.
func TestMatrixFollowsGrowth(t *testing.T) {
	p := NewProblem()
	p.SetMaximize()
	x := p.AddVariable("x", 0, 10, 1)
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Op: LE, RHS: 8})
	opts := Options{}
	if sol, err := p.SolveOpts(opts); err != nil || !near(sol.Objective, 8) {
		t.Fatalf("got %v, %v; want 8", sol.Objective, err)
	}
	p.AddConstraint(Constraint{Terms: []Term{{x, 2}}, Op: LE, RHS: 6})
	if sol, err := p.SolveOpts(opts); err != nil || !near(sol.Objective, 3) {
		t.Fatalf("after a new row: got %v, %v; want 3", sol.Objective, err)
	}
	y := p.AddVariable("y", 0, 1, 5)
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Op: LE, RHS: 3.5})
	if sol, err := p.SolveOpts(opts); err != nil || !near(sol.Objective, 2.5+5) {
		t.Fatalf("after a new variable: got %v, %v; want 7.5", sol.Objective, err)
	}
}

// Solves of one problem under different bounds may overlap, sharing its
// matrix (run under -race); each gives what it gives alone.
func TestConcurrentBoundedSolves(t *testing.T) {
	q := randomSparseLP(200, 150, 5)
	root, err := q.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := q.Bounds()
	opts := Options{Warm: root.Basis()}
	his := make([][]float64, 6)
	alone := make([]*Solution, len(his))
	for k := range his {
		his[k] = slices.Clone(hi)
		for j := k; j < len(hi); j += len(his) {
			his[k][j] *= 0.8
		}
		alone[k], _ = q.SolveBounded(lo, his[k], opts)
	}
	// The same problem, unsolved: the overlapping solves build its
	// matrix and the matrix's row-wise copy.
	p := randomSparseLP(200, 150, 5)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range his {
				got, _ := p.SolveBounded(lo, his[k], opts)
				if got.Status != alone[k].Status || got.Objective != alone[k].Objective || got.Iterations != alone[k].Iterations {
					t.Errorf("bounds %d: a concurrent solve gives %v %v in %d pivots, alone %v %v in %d",
						k, got.Status, got.Objective, got.Iterations, alone[k].Status, alone[k].Objective, alone[k].Iterations)
				}
			}
		}()
	}
	wg.Wait()
	if p.mat.Load().csr == nil {
		t.Fatal("no pivot row went hypersparse: the row-wise copy was never built")
	}
	optimal := 0
	for _, sol := range alone {
		if sol.Status == Optimal {
			optimal++
		}
	}
	if optimal == 0 {
		t.Fatal("every bound set is infeasible: the case proves little")
	}
}
