package lp

import (
	"fmt"
	"math"
	"os"
)

// Engine selects the simplex implementation.
type Engine int8

// Engines. EngineRevised, the zero value and the only one, is the
// sparse revised simplex every solve runs on: it touches only matrix
// nonzeros, handles bounds without materializing bound rows,
// warm-starts and polls Options.Cancel.
const EngineRevised Engine = 0

// Alias kept only so the bench/ ledger compiles (the engine it named is
// gone); the benchmark PR dropping bate.schedule_batch_ms removes it.
const EngineBatch = EngineRevised

// crosscheck, when set, is handed every LP solve's problem, bounds and
// result. It is nil in production; CrosscheckFromEnv sets it in tests.
var crosscheck func(p *Problem, lo, hi []float64, opts Options, rsol *Solution)

// solveLPWith is the single LP entry point: every Solve/SolveOpts/B&B
// node lands here.
func (p *Problem) solveLPWith(overrideLo, overrideHi []float64, opts Options) (*Solution, error) {
	sol, err := p.solveLPRevised(overrideLo, overrideHi, opts)
	if crosscheck != nil {
		crosscheck(p, overrideLo, overrideHi, opts, sol)
	}
	return sol, err
}

// solveLPRevised runs the sparse revised simplex, warm-starting from
// opts.Warm when one is supplied: any snapshot seeds any problem (see
// Basis). The warm attempt is abandoned for a cold two-phase solve only
// for the reasons runWarm names. A cold solve whose refactorization
// fails ends with ErrNumerical. The working state goes back to the
// problem's spare when the solve ends; the Solution is copied out of it.
func (p *Problem) solveLPRevised(overrideLo, overrideHi []float64, opts Options) (*Solution, error) {
	r, err := newRevisedBase(p, overrideLo, overrideHi)
	defer p.spare.Store(r)
	if err != nil {
		return &Solution{Status: Infeasible}, ErrInfeasible
	}
	r.rule = opts.Pivot
	r.cancel = opts.Cancel
	var st Status
	fallback := warmOK
	if opts.Warm != nil {
		if r.initWarm(opts.Warm) {
			st, fallback = r.runWarm()
		} else {
			fallback = warmSingular
		}
		warmstartRepair.Add(int64(r.pivots))
	}
	warmUsed := opts.Warm != nil && fallback == warmOK
	if warmUsed {
		warmstartHits.Inc()
	} else {
		if opts.Warm != nil {
			warmstartMiss.Inc()
			warmstartFallbacks.Inc()
		}
		prior := r.pivots
		r.init(p, overrideLo, overrideHi) // the bounds passed once
		r.rule = opts.Pivot
		r.cancel = opts.Cancel
		r.pivots = prior // keep the count monotone across the restart
		r.initCold()
		st = r.run()
	}
	pivotsRevised.Add(int64(r.pivots))
	sol := &Solution{Status: st, Iterations: r.pivots, Nodes: 1, WarmStarted: warmUsed, WarmFallback: fallback}
	switch st {
	case Infeasible:
		return sol, ErrInfeasible
	case Unbounded:
		return sol, ErrUnbounded
	case Aborted:
		abortsCtr.Inc()
		return sol, ErrAborted
	case IterLimit:
		return sol, ErrIterLimit
	case Numerical:
		return sol, ErrNumerical
	}
	sol.values = r.extract()
	sol.duals = r.extractDuals()
	for j, v := range p.vars {
		sol.Objective += v.cost * sol.values[j]
	}
	sol.basis = r.snapshot()
	return sol, nil
}

// The dense tableau (simplex.go) is the reference the tests hold the
// revised engine to. Nothing in production calls the two entries
// below, so the linker leaves the tableau out of every binary.

// SolveReference solves p on the dense reference tableau: an LP
// directly, a MILP through the same branch and bound as SolveOpts with
// every node on the tableau. It is for tests that compare the revised
// engine against an independent solver.
func SolveReference(p *Problem) (*Solution, error) {
	dense := func(p *Problem, lo, hi []float64, opts Options) (*Solution, error) {
		return p.solveLPDense(lo, hi, opts.Pivot)
	}
	if p.HasIntegers() {
		return p.solveMILPOpts(nil, nil, Options{}, dense)
	}
	return dense(p, nil, nil, Options{})
}

// CrosscheckFromEnv turns the cross-check on when LP_CROSSCHECK is set
// (and not "0"). With it on, every LP solve also runs on the tableau
// and panics if Status or objective disagree beyond 1e-6 relative: a
// debug mode that doubles (at least) the solve cost. A package whose
// tests solve LPs calls it from its TestMain.
func CrosscheckFromEnv() {
	if v := os.Getenv("LP_CROSSCHECK"); v != "" && v != "0" {
		crosscheck = solveLPCrosscheck
	}
}

// solveLPDense runs the dense two-phase tableau simplex.
func (p *Problem) solveLPDense(overrideLo, overrideHi []float64, rule PivotRule) (*Solution, error) {
	t, err := newTableau(p, overrideLo, overrideHi)
	if err != nil {
		// Bound-infeasible (lo > hi after branching).
		return &Solution{Status: Infeasible}, ErrInfeasible
	}
	t.rule = rule
	st := t.run()
	pivotsDense.Add(int64(t.pivots))
	sol := &Solution{Status: st, Iterations: t.pivots, Nodes: 1}
	switch st {
	case Infeasible:
		return sol, ErrInfeasible
	case Unbounded:
		return sol, ErrUnbounded
	case IterLimit:
		return sol, ErrIterLimit
	}
	sol.values = t.extract()
	sol.duals = t.extractDuals(len(p.cons))
	for j, v := range p.vars {
		sol.Objective += v.cost * sol.values[j]
	}
	return sol, nil
}

// solveLPCrosscheck solves p on the tableau and compares its verdict
// with the revised engine's rsol.
func solveLPCrosscheck(p *Problem, lo, hi []float64, opts Options, rsol *Solution) {
	dsol, _ := p.solveLPDense(lo, hi, opts.Pivot)
	switch {
	case dsol.Status == IterLimit, rsol.Status == IterLimit, rsol.Status == Aborted, rsol.Status == Numerical:
		return
	case dsol.Status != rsol.Status:
		panic(fmt.Sprintf("lp: crosscheck status mismatch: dense=%v revised=%v (%d vars, %d cons)",
			dsol.Status, rsol.Status, len(p.vars), len(p.cons)))
	case dsol.Status != Optimal:
		return
	}
	// The dense tableau's phase-1/extraction noise scales with the RHS
	// magnitudes (a binary fixed to 0 by branching can come back as
	// ~1e-6·max|b|), so compare 1e-6 relative to problem scale, not
	// just to the objective.
	scale := 1.0
	for _, c := range p.cons {
		if a := math.Abs(c.RHS); a > scale {
			scale = a
		}
	}
	tol := 1e-6 * (scale + math.Abs(dsol.Objective))
	if d := math.Abs(dsol.Objective - rsol.Objective); d > tol {
		panic(fmt.Sprintf("lp: crosscheck objective mismatch: dense=%.12g revised=%.12g diff=%g (%d vars, %d cons)",
			dsol.Objective, rsol.Objective, d, len(p.vars), len(p.cons)))
	}
}
