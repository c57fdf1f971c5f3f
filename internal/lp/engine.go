package lp

import (
	"fmt"
	"math"
	"os"
	"sync"
)

// Engine selects the simplex implementation.
type Engine int8

// Engines. EngineRevised, the zero value, is the sparse revised
// simplex every production solve runs on: it touches only matrix
// nonzeros, handles bounds without materializing bound rows, warm-starts
// and polls Options.Cancel. EngineDense is the dense tableau kept as
// the reference: the differential tests name it, LP_CROSSCHECK runs it
// beside every solve, and a revised solve that fails numerically falls
// back to it.
const (
	EngineRevised Engine = iota
	EngineDense
)

// Alias kept only so the bench/ ledger compiles (the engine it named is
// gone); the benchmark PR dropping bate.schedule_batch_ms removes it.
const EngineBatch = EngineRevised

func (e Engine) String() string {
	switch e {
	case EngineRevised:
		return "revised"
	case EngineDense:
		return "dense"
	}
	return "?"
}

// Cross-check mode: when LP_CROSSCHECK is set (and not "0"), every LP
// solve runs both engines and panics if Status or objective disagree
// beyond 1e-6 relative. Debug-only — it doubles (at least) the solve
// cost.
var crosscheckState struct {
	once sync.Once
	on   bool
}

func crosscheckOn() bool {
	crosscheckState.once.Do(func() {
		v := os.Getenv("LP_CROSSCHECK")
		crosscheckState.on = v != "" && v != "0"
	})
	return crosscheckState.on
}

// solveLPWith is the single LP entry point: every Solve/SolveOpts/B&B
// node lands here and dispatches on opts.Engine.
func (p *Problem) solveLPWith(overrideLo, overrideHi []float64, opts Options) (*Solution, error) {
	if crosscheckOn() {
		return p.solveLPCrosscheck(overrideLo, overrideHi, opts)
	}
	if opts.Engine == EngineDense {
		return p.solveLPDense(overrideLo, overrideHi, opts.Pivot)
	}
	return p.solveLPRevised(overrideLo, overrideHi, opts)
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

// solveLPRevised runs the sparse revised simplex, warm-starting from
// opts.Warm when one is supplied: any snapshot seeds any problem (see
// Basis). The warm attempt is abandoned for a cold two-phase solve only
// for the reasons runWarm names. The working state goes back to the
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
		if r.pivots < maxPivots {
			// Numerical bail (singular refactorization), not a genuine
			// pivot-cap hit: fall back to the dense reference engine.
			return p.solveLPDense(overrideLo, overrideHi, opts.Pivot)
		}
		return sol, ErrIterLimit
	}
	sol.values = r.extract()
	sol.duals = r.extractDuals()
	for j, v := range p.vars {
		sol.Objective += v.cost * sol.values[j]
	}
	sol.basis = r.snapshot()
	return sol, nil
}

// solveLPCrosscheck runs both engines and compares their verdicts,
// returning the result of the engine opts names.
func (p *Problem) solveLPCrosscheck(overrideLo, overrideHi []float64, opts Options) (*Solution, error) {
	dsol, derr := p.solveLPDense(overrideLo, overrideHi, opts.Pivot)
	rsol, rerr := p.solveLPRevised(overrideLo, overrideHi, opts)
	if dsol.Status != IterLimit && rsol.Status != IterLimit &&
		dsol.Status != Aborted && rsol.Status != Aborted {
		if dsol.Status != rsol.Status {
			panic(fmt.Sprintf("lp: crosscheck status mismatch: dense=%v revised=%v (%d vars, %d cons)",
				dsol.Status, rsol.Status, len(p.vars), len(p.cons)))
		}
		if dsol.Status == Optimal {
			// The dense tableau's phase-1/extraction noise scales with
			// the RHS magnitudes (a binary fixed to 0 by branching can
			// come back as ~1e-6·max|b|), so compare 1e-6 relative to
			// problem scale, not just to the objective.
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
	}
	if opts.Engine == EngineDense {
		return dsol, derr
	}
	return rsol, rerr
}
