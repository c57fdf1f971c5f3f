package lp

import (
	"fmt"
	"math"
	"os"
	"sync"
)

// Engine selects the simplex implementation.
type Engine int8

// Engines. EngineAuto resolves to the dense tableau — the longest-lived
// reference implementation — unless a warm-start basis is supplied, in
// which case only the revised engine can use it. EngineRevised is the
// sparse revised simplex: it touches only matrix nonzeros, handles
// bounds without materializing bound rows, and supports warm starts.
const (
	EngineAuto Engine = iota
	EngineDense
	EngineRevised
)

// Alias kept only so the bench/ ledger compiles (the engine it named is
// gone); the benchmark PR dropping bate.schedule_batch_ms removes it.
const EngineBatch = EngineRevised

func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineDense:
		return "dense"
	case EngineRevised:
		return "revised"
	}
	return "?"
}

// resolve maps EngineAuto to a concrete engine.
func (e Engine) resolve(warm *Basis) Engine {
	if e != EngineAuto {
		return e
	}
	if warm != nil {
		return EngineRevised
	}
	return EngineDense
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
// node lands here and dispatches on the resolved engine.
func (p *Problem) solveLPWith(overrideLo, overrideHi []float64, opts Options) (*Solution, error) {
	eng := opts.Engine.resolve(opts.Warm)
	if crosscheckOn() {
		return p.solveLPCrosscheck(overrideLo, overrideHi, opts, eng)
	}
	if eng == EngineRevised {
		return p.solveLPRevised(overrideLo, overrideHi, opts)
	}
	return p.solveLPDense(overrideLo, overrideHi, opts.Pivot)
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
// for the reasons runWarm names.
func (p *Problem) solveLPRevised(overrideLo, overrideHi []float64, opts Options) (*Solution, error) {
	r, err := newRevisedBase(p, overrideLo, overrideHi)
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
		r, _ = newRevisedBase(p, overrideLo, overrideHi)
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
// returning the resolved engine's result.
func (p *Problem) solveLPCrosscheck(overrideLo, overrideHi []float64, opts Options, eng Engine) (*Solution, error) {
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
	if eng == EngineRevised {
		return rsol, rerr
	}
	return dsol, derr
}
