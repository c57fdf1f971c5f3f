package lp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomLP generates a small random LP with a mix of operators, bound
// patterns and objective senses. Continuous random data keeps the
// instances generic (unique optima almost surely), so dense and
// revised must agree on values and duals, not just the objective.
func randomLP(rng *rand.Rand) *Problem {
	p := NewProblem()
	if rng.Intn(2) == 0 {
		p.SetMaximize()
	}
	n := 1 + rng.Intn(7)
	m := 1 + rng.Intn(7)
	for j := 0; j < n; j++ {
		up := math.Inf(1)
		if rng.Intn(2) == 0 {
			up = 0.5 + 4*rng.Float64()
		}
		p.AddVariable(fmt.Sprintf("x%d", j), 0, up, -5+10*rng.Float64())
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.6 {
				terms = append(terms, Term{Var: VarID(j), Coef: -3 + 6*rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: VarID(rng.Intn(n)), Coef: 1 + rng.Float64()})
		}
		p.AddConstraint(Constraint{
			Name:  fmt.Sprintf("c%d", i),
			Terms: terms, Op: Op(rng.Intn(3)), RHS: -5 + 10*rng.Float64(),
		})
	}
	return p
}

// compareEngines solves p with both engines and fails on any
// disagreement. Duals are compared only when checkDuals is set
// (degenerate instances have non-unique duals).
func compareEngines(t *testing.T, p *Problem, checkDuals bool, label string) {
	t.Helper()
	ds, _ := p.solveLPDense(nil, nil, Auto)
	rs, _ := p.solveLPRevised(nil, nil, Options{})
	if ds.Status != rs.Status {
		t.Fatalf("%s: status dense=%v revised=%v", label, ds.Status, rs.Status)
	}
	if ds.Status != Optimal {
		return
	}
	tol := 1e-6 * (1 + math.Abs(ds.Objective))
	if diff := math.Abs(ds.Objective - rs.Objective); diff > tol {
		t.Fatalf("%s: objective dense=%.12g revised=%.12g (diff %g)", label, ds.Objective, rs.Objective, diff)
	}
	if !checkDuals {
		return
	}
	for i := range ds.duals {
		if d := math.Abs(ds.duals[i] - rs.duals[i]); d > 1e-6*(1+math.Abs(ds.duals[i])) {
			t.Fatalf("%s: dual[%d] dense=%g revised=%g", label, i, ds.duals[i], rs.duals[i])
		}
	}
}

// TestEngineEquivalenceRandom is the property-based equivalence suite:
// 200 seeded random LPs spanning feasible, infeasible and unbounded
// instances with upper-bounded variables and every operator.
func TestEngineEquivalenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	statuses := make(map[Status]int)
	for k := 0; k < 200; k++ {
		p := randomLP(rng)
		ds, _ := p.solveLPDense(nil, nil, Auto)
		statuses[ds.Status]++
		compareEngines(t, p, true, fmt.Sprintf("case %d", k))
	}
	// The generator must actually exercise all three outcomes.
	for _, st := range []Status{Optimal, Infeasible, Unbounded} {
		if statuses[st] == 0 {
			t.Fatalf("generator produced no %v instances: %v", st, statuses)
		}
	}
}

// TestEngineEquivalenceDegenerate covers crafted degenerate and
// boundary instances where pivoting is most fragile. Duals are not
// compared (non-unique at degenerate optima).
func TestEngineEquivalenceDegenerate(t *testing.T) {
	for name, build := range degenerateLPs() {
		compareEngines(t, build(), false, name)
	}
}

// degenerateLPs are crafted degenerate and boundary instances, Beale's
// cycling example among them.
func degenerateLPs() map[string]func() *Problem {
	return map[string]func() *Problem{
		"beale-cycling": func() *Problem {
			// Beale's classic cycling example for Dantzig pivoting.
			p := NewProblem()
			x1 := p.AddVariable("x1", 0, math.Inf(1), -0.75)
			x2 := p.AddVariable("x2", 0, math.Inf(1), 150)
			x3 := p.AddVariable("x3", 0, math.Inf(1), -0.02)
			x4 := p.AddVariable("x4", 0, math.Inf(1), 6)
			p.AddConstraint(Constraint{Terms: []Term{{x1, 0.25}, {x2, -60}, {x3, -0.04}, {x4, 9}}, Op: LE, RHS: 0})
			p.AddConstraint(Constraint{Terms: []Term{{x1, 0.5}, {x2, -90}, {x3, -0.02}, {x4, 3}}, Op: LE, RHS: 0})
			p.AddConstraint(Constraint{Terms: []Term{{x3, 1}}, Op: LE, RHS: 1})
			return p
		},
		"degenerate-vertex": func() *Problem {
			// Three constraints meet at (1,1): multiple optimal bases.
			p := NewProblem()
			x := p.AddVariable("x", 0, math.Inf(1), -1)
			y := p.AddVariable("y", 0, math.Inf(1), -1)
			p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Op: LE, RHS: 2})
			p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Op: LE, RHS: 1})
			p.AddConstraint(Constraint{Terms: []Term{{y, 1}}, Op: LE, RHS: 1})
			p.AddConstraint(Constraint{Terms: []Term{{x, 2}, {y, 1}}, Op: LE, RHS: 3})
			return p
		},
		"fixed-variable": func() *Problem {
			// A variable fixed by equal bounds plus binding equalities.
			p := NewProblem()
			x := p.AddVariable("x", 2, 2, 1)
			y := p.AddVariable("y", 0, 5, 1)
			p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Op: EQ, RHS: 4})
			return p
		},
		"all-upper-bounded": func() *Problem {
			// Optimum rests on upper bounds, not constraint rows.
			p := NewProblem()
			p.SetMaximize()
			x := p.AddVariable("x", 0, 1, 3)
			y := p.AddVariable("y", 0, 2, 2)
			z := p.AddVariable("z", 0, 3, 1)
			p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}, {z, 1}}, Op: LE, RHS: 10})
			return p
		},
		"redundant-rows": func() *Problem {
			p := NewProblem()
			x := p.AddVariable("x", 0, math.Inf(1), 1)
			y := p.AddVariable("y", 0, math.Inf(1), 2)
			p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Op: EQ, RHS: 3})
			p.AddConstraint(Constraint{Terms: []Term{{x, 2}, {y, 2}}, Op: EQ, RHS: 6})
			p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Op: GE, RHS: 1})
			return p
		},
		"zero-rhs-degenerate": func() *Problem {
			p := NewProblem()
			x := p.AddVariable("x", 0, math.Inf(1), -1)
			y := p.AddVariable("y", 0, math.Inf(1), -2)
			p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, -1}}, Op: LE, RHS: 0})
			p.AddConstraint(Constraint{Terms: []Term{{x, -1}, {y, 1}}, Op: LE, RHS: 0})
			p.AddConstraint(Constraint{Terms: []Term{{x, 1}, {y, 1}}, Op: LE, RHS: 4})
			return p
		},
	}
}

func TestAddConstraintRejectsNonFinite(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	p := NewProblem()
	x := p.AddVariable("x", 0, 1, 1)
	mustPanic("nan-coef", func() {
		p.AddConstraint(Constraint{Terms: []Term{{x, math.NaN()}}, Op: LE, RHS: 1})
	})
	mustPanic("inf-coef", func() {
		p.AddConstraint(Constraint{Terms: []Term{{x, math.Inf(-1)}}, Op: LE, RHS: 1})
	})
	mustPanic("nan-rhs", func() {
		p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Op: LE, RHS: math.NaN()})
	})
	mustPanic("inf-rhs", func() {
		p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Op: GE, RHS: math.Inf(1)})
	})
	// A finite constraint still goes through.
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Op: LE, RHS: 1})
	if p.NumConstraints() != 1 {
		t.Fatalf("valid constraint rejected")
	}
}

func TestWarmStartReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for k := 0; k < 50; k++ {
		p := randomLP(rng)
		first, err := p.SolveOpts(Options{Engine: EngineRevised})
		if err != nil {
			continue // warm starts only apply after an optimal solve
		}
		if first.Basis() == nil {
			t.Fatalf("case %d: optimal revised solve returned nil basis", k)
		}
		if first.WarmStarted {
			t.Fatalf("case %d: cold solve flagged as warm", k)
		}
		second, err := p.SolveOpts(Options{Engine: EngineRevised, Warm: first.Basis()})
		if err != nil {
			t.Fatalf("case %d: warm re-solve failed: %v", k, err)
		}
		if !second.WarmStarted {
			t.Fatalf("case %d: identical re-solve did not warm-start", k)
		}
		if second.Iterations > first.Iterations {
			t.Fatalf("case %d: warm solve used more pivots (%d) than cold (%d)",
				k, second.Iterations, first.Iterations)
		}
		tol := 1e-6 * (1 + math.Abs(first.Objective))
		if math.Abs(second.Objective-first.Objective) > tol {
			t.Fatalf("case %d: warm objective %g != cold %g", k, second.Objective, first.Objective)
		}
	}
}

// TestWarmStartAfterBoundChange mimics a branch-and-bound child: the
// parent's basis warm-starts a problem whose only change is one
// tightened variable bound, and the result must match a cold dense
// solve of the modified problem.
func TestWarmStartAfterBoundChange(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for k := 0; k < 80; k++ {
		p := randomLP(rng)
		parent, err := p.SolveOpts(Options{Engine: EngineRevised})
		if err != nil {
			continue
		}
		j := rng.Intn(p.NumVariables())
		v := parent.Value(VarID(j))
		// Tighten around (or away from) the parent's optimal value.
		if rng.Intn(2) == 0 {
			p.SetBounds(VarID(j), math.Ceil(v-1e-6), math.Inf(1))
		} else {
			p.SetBounds(VarID(j), 0, math.Max(0, math.Floor(v+1e-6)))
		}
		warm, werr := p.SolveOpts(Options{Engine: EngineRevised, Warm: parent.Basis()})
		cold, cerr := p.solveLPDense(nil, nil, Auto)
		if warm.Status != cold.Status {
			t.Fatalf("case %d: status warm=%v dense=%v (warm err %v, cold err %v)",
				k, warm.Status, cold.Status, werr, cerr)
		}
		if cold.Status == Optimal {
			tol := 1e-6 * (1 + math.Abs(cold.Objective))
			if math.Abs(warm.Objective-cold.Objective) > tol {
				t.Fatalf("case %d: warm objective %g != dense %g", k, warm.Objective, cold.Objective)
			}
		}
	}
}

// TestWarmStartShapeMismatch: a basis from a problem of another shape
// (or with other operators) is remapped by name and repaired, not
// discarded — the solve warm-starts and lands on the cold optimum.
func TestWarmStartShapeMismatch(t *testing.T) {
	p1 := NewProblem()
	x := p1.AddVariable("x", 0, 10, 1)
	p1.AddConstraint(Constraint{Name: "need", Terms: []Term{{x, 1}}, Op: GE, RHS: 2})
	s1, err := p1.SolveOpts(Options{Engine: EngineRevised})
	if err != nil {
		t.Fatal(err)
	}
	// One surviving column and row, one new column and row.
	p2 := NewProblem()
	a := p2.AddVariable("x", 0, 10, 1)
	b := p2.AddVariable("b", 0, 10, 2)
	p2.AddConstraint(Constraint{Name: "need", Terms: []Term{{a, 1}, {b, 1}}, Op: GE, RHS: 3})
	p2.AddConstraint(Constraint{Name: "cap", Terms: []Term{{b, 1}}, Op: LE, RHS: 1})
	s2, err := p2.SolveOpts(Options{Engine: EngineRevised, Warm: s1.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	if !s2.WarmStarted || s2.WarmFallback != "" {
		t.Fatalf("remapped basis did not warm-start (fallback %q)", s2.WarmFallback)
	}
	if math.Abs(s2.Objective-3) > 1e-9 {
		t.Fatalf("objective %g, want 3", s2.Objective)
	}
	// Same shape and names, different operator: the row is new.
	p3 := NewProblem()
	y := p3.AddVariable("x", 0, 10, -1)
	p3.AddConstraint(Constraint{Name: "need", Terms: []Term{{y, 1}}, Op: LE, RHS: 2})
	s3, err := p3.SolveOpts(Options{Engine: EngineRevised, Warm: s1.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	if !s3.WarmStarted {
		t.Fatalf("operator-changed basis did not warm-start (fallback %q)", s3.WarmFallback)
	}
	if math.Abs(s3.Objective+2) > 1e-9 {
		t.Fatalf("objective %g, want -2", s3.Objective)
	}
	// Shrinking back drops a basic column and a row.
	s4, err := p1.SolveOpts(Options{Engine: EngineRevised, Warm: s2.Basis()})
	if err != nil {
		t.Fatal(err)
	}
	if !s4.WarmStarted || math.Abs(s4.Objective-2) > 1e-9 {
		t.Fatalf("shrunk problem: warm=%v objective %g, want warm 2", s4.WarmStarted, s4.Objective)
	}
}

// TestWarmStartForeignBasis: correctness never rests on what a name
// means. Random LPs all call their columns x0.. and their rows c0.., so
// the optimal basis of one seeds an unrelated other with arbitrary
// statuses — as a reused demand id does — and the warm solve must still
// return the dense engine's verdict and objective.
func TestWarmStartForeignBasis(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	warmed, seeded := 0, 0 // among problems with an optimum
	for k := 0; k < 4000; k++ {
		donor, err := randomLP(rng).SolveOpts(Options{Engine: EngineRevised})
		if err != nil {
			continue
		}
		p := randomLP(rng)
		warm, werr := p.SolveOpts(Options{Engine: EngineRevised, Warm: donor.Basis()})
		cold, cerr := p.solveLPDense(nil, nil, Auto)
		if warm.Status != cold.Status {
			t.Fatalf("case %d: status warm=%v dense=%v (warm err %v, cold err %v)", k, warm.Status, cold.Status, werr, cerr)
		}
		if !warm.WarmStarted && warm.WarmFallback == "" {
			t.Fatalf("case %d: cold solve with no fallback reason", k)
		}
		if cold.Status == Optimal {
			seeded++
			if warm.WarmStarted {
				warmed++
			}
			tol := 1e-6 * (1 + math.Abs(cold.Objective))
			if math.Abs(warm.Objective-cold.Objective) > tol {
				t.Fatalf("case %d: warm objective %.12g != dense %.12g", k, warm.Objective, cold.Objective)
			}
		}
	}
	if seeded < 100 || warmed < seeded*9/10 {
		t.Fatalf("%d of %d foreign bases warm-started", warmed, seeded)
	}
}

// TestBasisNilForDense: the dense engine does not produce a basis.
func TestBasisNilForDense(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 1, 1)
	p.AddConstraint(Constraint{Terms: []Term{{x, 1}}, Op: GE, RHS: 0.5})
	sol, err := p.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if sol.Basis() != nil {
		t.Fatal("dense solve returned a basis")
	}
}

// randomMILP generates a small mixed LP/binary problem.
func randomMILP(rng *rand.Rand) *Problem {
	p := NewProblem()
	if rng.Intn(2) == 0 {
		p.SetMaximize()
	}
	n := 2 + rng.Intn(4)
	for j := 0; j < n; j++ {
		if rng.Intn(2) == 0 {
			p.AddBinary(fmt.Sprintf("b%d", j), -4+8*rng.Float64())
		} else {
			p.AddVariable(fmt.Sprintf("x%d", j), 0, 3+2*rng.Float64(), -4+8*rng.Float64())
		}
	}
	m := 1 + rng.Intn(4)
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if rng.Float64() < 0.7 {
				terms = append(terms, Term{Var: VarID(j), Coef: -3 + 6*rng.Float64()})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: VarID(rng.Intn(n)), Coef: 1})
		}
		p.AddConstraint(Constraint{Terms: terms, Op: Op(rng.Intn(2)), RHS: 1 + 5*rng.Float64()})
	}
	return p
}

// TestMILPWarmMatchesCold: warm-started branch & bound (children reuse
// the parent basis) reaches the same optimum as cold revised and dense
// runs, without using more pivots in total.
func TestMILPWarmMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	warmPivots, coldPivots := 0, 0
	for k := 0; k < 60; k++ {
		p := randomMILP(rng)
		warm, werr := p.SolveOpts(Options{Engine: EngineRevised})
		cold, cerr := p.SolveOpts(Options{Engine: EngineRevised, ColdStart: true})
		dense, derr := p.SolveOpts(Options{Engine: EngineDense})
		if (werr == nil) != (derr == nil) || (cerr == nil) != (derr == nil) {
			t.Fatalf("case %d: err warm=%v cold=%v dense=%v", k, werr, cerr, derr)
		}
		if warm.Status != dense.Status || cold.Status != dense.Status {
			t.Fatalf("case %d: status warm=%v cold=%v dense=%v", k, warm.Status, cold.Status, dense.Status)
		}
		if derr == nil {
			tol := 1e-6 * (1 + math.Abs(dense.Objective))
			if math.Abs(warm.Objective-dense.Objective) > tol {
				t.Fatalf("case %d: warm MILP objective %g != dense %g", k, warm.Objective, dense.Objective)
			}
			if math.Abs(cold.Objective-dense.Objective) > tol {
				t.Fatalf("case %d: cold MILP objective %g != dense %g", k, cold.Objective, dense.Objective)
			}
		}
		warmPivots += warm.Iterations
		coldPivots += cold.Iterations
	}
	if warmPivots > coldPivots {
		t.Fatalf("warm-started B&B used more pivots (%d) than cold (%d)", warmPivots, coldPivots)
	}
}

// lcg is a tiny deterministic generator for test problem data.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(*l>>11) / float64(1<<53)
}

// randomCoverLP builds a feasible, bounded covering-style LP: boxed
// nonnegative variables, GE rows with nonnegative coefficients and
// RHS set to a fraction of each row's maximum activity, plus a few LE
// budget rows. The shape resembles the scheduling LP (covering rows
// against capacity rows).
func randomCoverLP(nVars, nRows int, seed uint64) *Problem {
	r := lcg(seed)
	p := NewProblem()
	for j := 0; j < nVars; j++ {
		p.AddVariable(fmt.Sprintf("x%d", j), 0, 1+4*r.next(), 0.5+r.next())
	}
	for i := 0; i < nRows; i++ {
		var terms []Term
		maxAct := 0.0
		for j := 0; j < nVars; j++ {
			if r.next() < 0.3 {
				c := 0.5 + r.next()
				terms = append(terms, Term{Var: VarID(j), Coef: c})
				maxAct += c * p.vars[j].upper
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: VarID(i % nVars), Coef: 1})
			maxAct = p.vars[i%nVars].upper
		}
		p.AddConstraint(Constraint{Terms: terms, Op: GE, RHS: 0.3 * maxAct})
	}
	// A few loose LE budget rows keep some duals negative.
	for i := 0; i < nRows/10+1; i++ {
		var terms []Term
		for j := 0; j < nVars; j += 3 {
			terms = append(terms, Term{Var: VarID(j), Coef: 1})
		}
		ub := 0.0
		for _, t := range terms {
			ub += p.vars[t.Var].upper
		}
		p.AddConstraint(Constraint{Terms: terms, Op: LE, RHS: 0.9 * ub})
	}
	return p
}

func TestCancelAbortsRevised(t *testing.T) {
	p := randomCoverLP(40, 60, 7)
	canceled := errors.New("deadline")
	sol, err := p.SolveOpts(Options{Engine: EngineRevised, Cancel: func() error { return canceled }})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if sol.Status != Aborted {
		t.Fatalf("status %v, want Aborted", sol.Status)
	}
}

func TestCancelAbortsMILP(t *testing.T) {
	// A MILP whose node relaxation aborts must surface Aborted, not a
	// silently pruned "infeasible".
	p := NewProblem()
	p.SetMaximize()
	for j := 0; j < 8; j++ {
		p.AddBinary(fmt.Sprintf("b%d", j), 1)
	}
	var terms []Term
	for j := 0; j < 8; j++ {
		terms = append(terms, Term{Var: VarID(j), Coef: 1})
	}
	p.AddConstraint(Constraint{Terms: terms, Op: LE, RHS: 3})
	_, err := p.SolveOpts(Options{Engine: EngineRevised, Cancel: func() error { return errors.New("stop") }})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

func TestCancelNilNeverAborts(t *testing.T) {
	p := randomCoverLP(20, 30, 9)
	if _, err := p.SolveOpts(Options{Engine: EngineRevised}); err != nil {
		t.Fatalf("nil Cancel must not abort: %v", err)
	}
}
