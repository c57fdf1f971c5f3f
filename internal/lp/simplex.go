package lp

import "math"

// PivotRule selects the entering-column strategy of the simplex.
type PivotRule int8

// Pivot rules. Auto uses Dantzig and falls back to Bland after
// blandThreshold pivots to guarantee termination on degenerate
// problems; the pure rules exist for the ablation benchmarks.
const (
	Auto PivotRule = iota
	Dantzig
	Bland
)

// Options tunes the solver.
type Options struct {
	Pivot PivotRule
	// MaxNodes bounds branch & bound nodes (0 = default 200000).
	MaxNodes int
	// FirstIncumbent stops branch & bound at the first integral
	// solution instead of proving optimality — the feasibility-check
	// mode used by admission control.
	FirstIncumbent bool
	// Engine selects the simplex implementation; EngineAuto uses the
	// dense tableau unless Warm is supplied.
	Engine Engine
	// Warm seeds the revised engine with a previously optimal basis: of
	// this problem, or of any problem sharing column and row names with
	// it (see Basis). Ignored by the dense engine.
	Warm *Basis
	// ColdStart disables parent-basis warm-starting inside branch &
	// bound (benchmark/ablation control).
	ColdStart bool
	// Cancel, when non-nil, is polled every few dozen pivots (and per
	// branch-and-bound node, at its relaxation's first pivot); a
	// non-nil return aborts the solve with Status Aborted / ErrAborted.
	// Deadline-bounded recovery and the chaos solver budget hook in
	// here so a runaway solve stops mid-iteration, not just between
	// phases. The dense reference engine does not poll it.
	Cancel func() error
}

// SolveOpts is Solve with explicit Options.
func (p *Problem) SolveOpts(opts Options) (*Solution, error) {
	if p.HasIntegers() {
		return p.solveMILPOpts(opts)
	}
	return p.solveLPWith(nil, nil, opts)
}

// tableau is a dense two-phase primal simplex working state.
type tableau struct {
	p       *Problem
	m, n    int         // rows, columns (excluding RHS)
	a       [][]float64 // m rows of n+1 (last entry is RHS)
	basis   []int       // basic column per row
	deleted []bool      // redundant rows discovered in phase 1
	meta    []rowMeta   // user-constraint mapping for dual recovery
	nStruct int
	artLo   int       // first artificial column
	lo      []float64 // lower-bound shift per structural variable
	rule    PivotRule
	pivots  int

	cvec    []float64 // current phase costs per column
	reduced []float64 // reduced costs per column
}

// newTableau builds the initial tableau. overrideLo/overrideHi, when
// non-nil, replace the problem's variable bounds (used by branch &
// bound). It returns an error iff some variable has lo > hi.
func newTableau(p *Problem, overrideLo, overrideHi []float64) (*tableau, error) {
	ns := len(p.vars)
	lo := make([]float64, ns)
	hi := make([]float64, ns)
	for j, v := range p.vars {
		lo[j], hi[j] = v.lower, v.upper
	}
	if overrideLo != nil {
		copy(lo, overrideLo)
	}
	if overrideHi != nil {
		copy(hi, overrideHi)
	}
	for j := range lo {
		if lo[j] > hi[j]+eps {
			return nil, ErrInfeasible
		}
	}

	// Row set: the problem's constraints plus one LE row per finite
	// shifted upper bound.
	type row struct {
		coefs   []float64
		op      Op
		rhs     float64
		userIdx int
		negated bool
	}
	rows := make([]row, 0, len(p.cons)+ns)
	for ci, c := range p.cons {
		r := row{coefs: make([]float64, ns), op: c.Op, rhs: c.RHS, userIdx: ci}
		for _, t := range c.Terms {
			r.coefs[t.Var] += t.Coef
			r.rhs -= t.Coef * lo[t.Var] // shift x = x' + lo
		}
		rows = append(rows, r)
	}
	for j := 0; j < ns; j++ {
		if up := hi[j] - lo[j]; !math.IsInf(up, 1) {
			r := row{coefs: make([]float64, ns), op: LE, rhs: up, userIdx: -1}
			r.coefs[j] = 1
			rows = append(rows, r)
		}
	}
	// Normalize RHS >= 0.
	for i := range rows {
		if rows[i].rhs < 0 {
			rows[i].negated = true
			for j := range rows[i].coefs {
				rows[i].coefs[j] = -rows[i].coefs[j]
			}
			rows[i].rhs = -rows[i].rhs
			switch rows[i].op {
			case LE:
				rows[i].op = GE
			case GE:
				rows[i].op = LE
			}
		}
	}
	m := len(rows)
	nSlack, nArt := 0, 0
	for _, r := range rows {
		switch r.op {
		case LE:
			nSlack++
		case GE:
			nSlack++ // surplus
			nArt++
		case EQ:
			nArt++
		}
	}
	n := ns + nSlack + nArt
	t := &tableau{
		p: p, m: m, n: n,
		a:       make([][]float64, m),
		basis:   make([]int, m),
		deleted: make([]bool, m),
		nStruct: ns,
		artLo:   ns + nSlack,
		lo:      lo,
		meta:    make([]rowMeta, m),
	}
	slack, art := ns, t.artLo
	for i, r := range rows {
		t.a[i] = make([]float64, n+1)
		copy(t.a[i], r.coefs)
		t.a[i][n] = r.rhs
		t.meta[i] = rowMeta{userIdx: r.userIdx, negated: r.negated, auxSign: 1}
		switch r.op {
		case LE:
			t.a[i][slack] = 1
			t.basis[i] = slack
			t.meta[i].auxCol = slack
			slack++
		case GE:
			t.a[i][slack] = -1
			slack++
			t.a[i][art] = 1
			t.basis[i] = art
			t.meta[i].auxCol = art
			art++
		case EQ:
			t.a[i][art] = 1
			t.basis[i] = art
			t.meta[i].auxCol = art
			art++
		}
	}
	return t, nil
}

// run executes both simplex phases and returns the status.
func (t *tableau) run() Status {
	// Phase 1: minimize the sum of artificials.
	if t.artLo < t.n {
		cv := make([]float64, t.n)
		for j := t.artLo; j < t.n; j++ {
			cv[j] = 1
		}
		t.setCosts(cv)
		if st := t.optimize(true); st != Optimal {
			return st
		}
		if t.objValue() > 1e-7 {
			return Infeasible
		}
		t.purgeArtificials()
	}
	// Phase 2: the real objective (negated for maximization).
	cv := make([]float64, t.n)
	for j := 0; j < t.nStruct; j++ {
		c := t.p.vars[j].cost
		if t.p.maximize {
			c = -c
		}
		cv[j] = c
	}
	t.setCosts(cv)
	return t.optimize(false)
}

// setCosts installs a cost vector and recomputes reduced costs.
func (t *tableau) setCosts(cv []float64) {
	t.cvec = cv
	t.reduced = make([]float64, t.n)
	copy(t.reduced, cv)
	for i := 0; i < t.m; i++ {
		if t.deleted[i] {
			continue
		}
		cb := cv[t.basis[i]]
		if cb == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j < t.n; j++ {
			t.reduced[j] -= cb * row[j]
		}
	}
}

// objValue returns the current objective value (phase costs).
func (t *tableau) objValue() float64 {
	v := 0.0
	for i := 0; i < t.m; i++ {
		if !t.deleted[i] {
			v += t.cvec[t.basis[i]] * t.a[i][t.n]
		}
	}
	return v
}

// optimize pivots until optimality. In phase 1 artificial columns may
// enter; in phase 2 they may not.
func (t *tableau) optimize(phase1 bool) Status {
	limit := t.n
	if phase1 {
		limit = t.n
	} else {
		limit = t.artLo
	}
	for iter := 0; ; iter++ {
		if t.pivots >= maxPivots {
			return IterLimit
		}
		bland := t.rule == Bland || (t.rule != Dantzig && t.pivots >= blandThreshold)
		// Entering column.
		enter := -1
		best := -eps
		for j := 0; j < limit; j++ {
			if t.reduced[j] < -eps {
				if bland {
					enter = j
					break
				}
				if t.reduced[j] < best {
					best = t.reduced[j]
					enter = j
				}
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Ratio test.
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.deleted[i] {
				continue
			}
			aij := t.a[i][enter]
			if aij <= eps {
				continue
			}
			ratio := t.a[i][t.n] / aij
			if ratio < bestRatio-eps ||
				(ratio < bestRatio+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
				bestRatio = ratio
				leave = i
			}
		}
		if leave < 0 {
			if phase1 {
				// Phase-1 objective is bounded below by 0; a missing
				// ratio means numerical trouble. Treat as infeasible.
				return Infeasible
			}
			return Unbounded
		}
		t.pivot(leave, enter)
	}
}

// pivot performs a full tableau pivot making column enter basic in row
// leave, updating reduced costs incrementally.
func (t *tableau) pivot(leave, enter int) {
	t.pivots++
	prow := t.a[leave]
	pv := prow[enter]
	inv := 1 / pv
	for j := 0; j <= t.n; j++ {
		prow[j] *= inv
	}
	prow[enter] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == leave || t.deleted[i] {
			continue
		}
		f := t.a[i][enter]
		if f == 0 {
			continue
		}
		row := t.a[i]
		for j := 0; j <= t.n; j++ {
			row[j] -= f * prow[j]
		}
		row[enter] = 0 // exact
	}
	f := t.reduced[enter]
	if f != 0 {
		for j := 0; j < t.n; j++ {
			t.reduced[j] -= f * prow[j]
		}
		t.reduced[enter] = 0
	}
	t.basis[leave] = enter
}

// purgeArtificials removes basic artificials after phase 1 by pivoting
// them out on any non-artificial column, or marking the row redundant
// if none exists.
func (t *tableau) purgeArtificials() {
	for i := 0; i < t.m; i++ {
		if t.deleted[i] || t.basis[i] < t.artLo {
			continue
		}
		pivoted := false
		for j := 0; j < t.artLo; j++ {
			if math.Abs(t.a[i][j]) > 1e-7 {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		if !pivoted {
			t.deleted[i] = true
		}
	}
}

// extract recovers the structural variable values (undoing the
// lower-bound shift).
func (t *tableau) extract() []float64 {
	vals := make([]float64, t.nStruct)
	copy(vals, t.lo)
	for i := 0; i < t.m; i++ {
		if t.deleted[i] {
			continue
		}
		if b := t.basis[i]; b < t.nStruct {
			vals[b] += t.a[i][t.n]
		}
	}
	// Clamp tiny negatives produced by roundoff.
	for j := range vals {
		if vals[j] < 0 && vals[j] > -1e-7 {
			vals[j] = 0
		}
	}
	return vals
}
