package lp

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// rebuild empties q and assembles src into it as a caller reassembling
// every round does: the rows' terms are copied into one buffer that the
// caller keeps (*terms), so the terms of q's rows before are overwritten.
func rebuild(q, src *Problem, terms *[]Term) {
	q.Reset()
	if src.maximize {
		q.SetMaximize()
	}
	for _, v := range src.vars {
		id := q.AddVariable(v.name, v.lower, v.upper, v.cost)
		if v.integral {
			q.SetIntegral(id)
		}
	}
	n := 0
	for _, c := range src.cons {
		n += len(c.Terms)
	}
	buf := slices.Grow((*terms)[:0], n)
	for _, c := range src.cons {
		start := len(buf)
		buf = append(buf, c.Terms...)
		c.Terms = buf[start:len(buf):len(buf)]
		q.AddConstraint(c)
	}
	*terms = buf
}

// clone is src assembled into a fresh problem.
func clone(src *Problem) *Problem {
	q := NewProblem()
	rebuild(q, src, new([]Term))
	return q
}

// solveCase solves p as kernel case c runs: its bounds, warm basis and
// pivot rule, on the revised engine.
func solveCase(p *Problem, c kernelCase) (*Solution, error) {
	return p.solveLPRevised(c.lo, c.hi, Options{Warm: c.warm, Pivot: c.rule})
}

// sameSolution fails unless got is want bit for bit: the verdict, the
// pivots, the warm start, the objective, every value and dual, and the
// basis snapshot.
func sameSolution(t *testing.T, name string, got, want *Solution, gotErr, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || got.Status != want.Status || got.Iterations != want.Iterations ||
		got.Nodes != want.Nodes || got.WarmStarted != want.WarmStarted || got.WarmFallback != want.WarmFallback {
		t.Fatalf("%s: %v in %d pivots, %d nodes (warm %v %q); fresh problem %v in %d pivots, %d nodes (warm %v %q)",
			name, got.Status, got.Iterations, got.Nodes, got.WarmStarted, got.WarmFallback,
			want.Status, want.Iterations, want.Nodes, want.WarmStarted, want.WarmFallback)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
		!bitsEqual(got.values, want.values) || !bitsEqual(got.duals, want.duals) {
		t.Fatalf("%s: objective %v, values or duals differ from the fresh problem's (objective %v)", name, got.Objective, want.Objective)
	}
	if !reflect.DeepEqual(got.basis, want.basis) {
		t.Fatalf("%s: the basis differs from the fresh problem's", name)
	}
}

// TestResetRebuildMatchesFresh solves every kernel case and a set of
// MILPs through one problem that is Reset and rebuilt before each
// solve, so that every solve runs on the matrix arrays and the solver
// state the solve before left, of a problem of another shape. Each must
// be a fresh problem's solve bit for bit.
func TestResetRebuildMatchesFresh(t *testing.T) {
	q := NewProblem()
	var terms []Term
	reusedMat, reusedState := 0, 0
	check := func(name string, solve func(p *Problem) (*Solution, error), src *Problem) {
		t.Helper()
		want, wantErr := solve(clone(src))
		rebuild(q, src, &terms)
		oldMat, spare := q.oldMat.Load(), q.spare.Load()
		got, gotErr := solve(q)
		sameSolution(t, name, got, want, gotErr, wantErr)
		if oldMat != nil && q.mat.Load() == oldMat {
			reusedMat++
		}
		if spare != nil && q.spare.Load() == spare {
			reusedState++
		}
	}
	cases := kernelCases()
	for _, c := range cases {
		check(c.name, func(p *Problem) (*Solution, error) { return solveCase(p, c) }, c.p)
	}
	rng := rand.New(rand.NewSource(99))
	milps := 0
	for k := 0; k < 200; k++ {
		p := randomMILP(rng)
		check(fmt.Sprintf("milp %d", k), func(p *Problem) (*Solution, error) {
			sol, err := p.SolveOpts(Options{})
			if sol.Nodes > 1 {
				milps++
			}
			return sol, err
		}, p)
	}
	t.Logf("%d kernel cases and 200 MILPs (%d solves branched): %d rebuilt into the matrix before, %d on the solver state before",
		len(cases), milps/2, reusedMat, reusedState)
	if reusedMat < len(cases)/2 || reusedState < len(cases)/2 || milps == 0 {
		t.Fatalf("reuse barely exercised: %d matrices and %d solver states reused, %d branched solves", reusedMat, reusedState, milps)
	}
}

// TestGrownProblemRecyclesMatrix adds a row, then a column and a row
// over it, to a solved problem: each rebuilds the matrix into the
// arrays of the one it outgrew, and the solve, cold and warm from the
// basis before the change, is a fresh problem's bit for bit.
func TestGrownProblemRecyclesMatrix(t *testing.T) {
	p := randomSparseLP(60, 90, 3)
	prev, err := p.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 6; step++ {
		mx := p.mat.Load()
		if step%2 == 1 {
			x := p.AddVariable(fmt.Sprintf("new%d", step), 0, 4, 0.7)
			p.AddConstraint(Constraint{Name: fmt.Sprintf("r%d", step), Terms: []Term{{x, 1}, {VarID(step), 1}}, Op: GE, RHS: 0.5})
		} else {
			p.AddConstraint(Constraint{Name: fmt.Sprintf("r%d", step), Terms: []Term{{VarID(step), 1}, {VarID(step + 7), 2}}, Op: LE, RHS: 3})
		}
		if p.mat.Load() != nil {
			t.Fatalf("step %d: the outgrown matrix is still the problem's", step)
		}
		for _, warm := range []*Basis{nil, prev.Basis()} {
			opts := Options{Warm: warm}
			want, wantErr := clone(p).SolveOpts(opts)
			got, gotErr := p.SolveOpts(opts)
			sameSolution(t, fmt.Sprintf("step %d warm=%v", step, warm != nil), got, want, gotErr, wantErr)
			if p.mat.Load() != mx {
				t.Fatalf("step %d: the matrix was not rebuilt into the outgrown one", step)
			}
			if gotErr == nil {
				prev = got
			}
		}
	}
}

// TestConcurrentSolvesWithSpare: solves of one unchanging problem that
// overlap, on two goroutines, while one of them holds the spare solver
// state (run under -race): the other allocates its own, and each solve
// gives what it gives alone.
func TestConcurrentSolvesWithSpare(t *testing.T) {
	p := randomSparseLP(200, 150, 5)
	root, err := p.SolveOpts(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.spare.Load() == nil {
		t.Fatal("a finished solve left no spare state")
	}
	lo, hi := p.Bounds()
	his := make([][]float64, 6)
	alone := make([]*Solution, len(his))
	for k := range his {
		his[k] = slices.Clone(hi)
		for j := k; j < len(hi); j += len(his) {
			his[k][j] *= 0.7
		}
		alone[k], _ = clone(p).SolveBounded(lo, his[k], Options{Warm: root.Basis()})
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range his {
				got, _ := p.SolveBounded(lo, his[k], Options{Warm: root.Basis()})
				if got.Status != alone[k].Status || got.Iterations != alone[k].Iterations ||
					math.Float64bits(got.Objective) != math.Float64bits(alone[k].Objective) || !bitsEqual(got.values, alone[k].values) {
					t.Errorf("bounds %d: an overlapping solve gives %v %v in %d pivots, alone %v %v in %d",
						k, got.Status, got.Objective, got.Iterations, alone[k].Status, alone[k].Objective, alone[k].Iterations)
				}
			}
		}()
	}
	wg.Wait()
}
