package lp

import (
	"math"
	"slices"
)

// The sparse revised simplex engine. Unlike the dense tableau, it
// (1) keeps the constraint matrix in CSC form and touches only
// nonzeros, (2) handles variable bounds natively — nonbasic variables
// sit at a bound and may "bound-flip" without a basis change — so no
// explicit upper-bound rows are materialized, and (3) maintains the
// basis inverse in product form (basis.go) with periodic
// refactorization. A bounded dual simplex restores primal feasibility
// from a warm-start basis — after bound changes (branch & bound
// children) or after rows and columns came and went (re-scheduling
// rounds, see Basis) — avoiding a cold Phase 1.

// Nonbasic/basic variable states.
const (
	atLower int8 = iota
	atUpper
	isBasic
)

const (
	// pivotTol is the minimum |pivot| accepted in ratio tests.
	pivotTol = 1e-9
	// stablePivotTol triggers a refactorization retry when the FTRAN'd
	// pivot element is suspiciously small.
	stablePivotTol = 1e-7
	// feasTol is the primal/dual feasibility tolerance for warm starts.
	feasTol = 1e-7
)

// revised is the working state of one revised-simplex solve.
type revised struct {
	p        *Problem
	ns       int // structural variables
	m        int // constraint rows
	artLo    int // first artificial column (== csc.n)
	ncols    int // csc.n + m artificials
	csc      *cscMatrix
	slackCol []int32
	rhs      []float64
	artSign  []float64 // per-row artificial coefficient (±1)

	lo, hi []float64 // per column, artificials included
	cost   []float64 // current-phase cost per column
	status []int8
	rowVar []int32   // basic column per row
	xB     []float64 // basic value per row

	fac           factorization
	sinceRefactor int
	rule          PivotRule
	pivots        int
	cancel        func() error

	// dense scratch vectors, all length m
	work, work2, y []float64
	artInd         [1]int32
	artVal         [1]float64

	csr     *cscMatrix // row-wise copy of csc, built on first use
	alpha   []float64  // the last pivotRow, nonzero only at rowCols
	rowCols []int
	d       []float64 // carried reduced costs, per structural or slack column
	stale   bool      // d was updated since the last refresh
}

// newRevisedBase builds the problem-shaped state (bounds, CSC, scratch)
// without choosing a starting basis. It returns ErrInfeasible when a
// bound override leaves lo > hi, matching newTableau.
func newRevisedBase(p *Problem, overrideLo, overrideHi []float64) (*revised, error) {
	ns := len(p.vars)
	m := len(p.cons)
	csc, slackCol := buildCSC(p)
	r := &revised{
		p: p, ns: ns, m: m,
		artLo: csc.n, ncols: csc.n + m,
		csc: csc, slackCol: slackCol,
	}
	r.lo = make([]float64, r.ncols)
	r.hi = make([]float64, r.ncols)
	r.cost = make([]float64, r.ncols)
	r.status = make([]int8, r.ncols)
	r.rowVar = make([]int32, m)
	r.xB = make([]float64, m)
	r.rhs = make([]float64, m)
	r.artSign = make([]float64, m)
	r.work = make([]float64, m)
	r.work2 = make([]float64, m)
	r.y = make([]float64, m)
	r.d, r.alpha = make([]float64, r.artLo), make([]float64, r.artLo)

	for j, v := range p.vars {
		r.lo[j], r.hi[j] = v.lower, v.upper
	}
	if overrideLo != nil {
		copy(r.lo[:ns], overrideLo)
	}
	if overrideHi != nil {
		copy(r.hi[:ns], overrideHi)
	}
	for j := 0; j < ns; j++ {
		if r.lo[j] > r.hi[j]+eps {
			return nil, ErrInfeasible
		}
	}
	for j := ns; j < r.artLo; j++ {
		r.hi[j] = math.Inf(1) // slacks/surpluses in [0, +inf)
	}
	for i, c := range p.cons {
		r.rhs[i] = c.RHS
		r.artSign[i] = 1
	}
	r.fac.reset(m)
	return r, nil
}

// colOf materializes column j (CSC column or implicit artificial).
func (r *revised) colOf(j int32) ([]int32, []float64) {
	if int(j) < r.artLo {
		return r.csc.col(int(j))
	}
	row := int32(int(j) - r.artLo)
	r.artInd[0] = row
	r.artVal[0] = r.artSign[row]
	return r.artInd[:], r.artVal[:]
}

// boundValue returns the resting value of a nonbasic column.
func (r *revised) boundValue(j int) float64 {
	if r.status[j] == atUpper {
		return r.hi[j]
	}
	return r.lo[j]
}

// initCold installs the textbook starting basis: structural variables
// at their lower bound, each row's slack basic where it can absorb the
// residual, an artificial (with matching sign) elsewhere. Artificials
// not needed by any row start fixed at zero.
func (r *revised) initCold() {
	for j := 0; j < r.artLo; j++ {
		r.status[j] = atLower
	}
	// Residual r_i = b_i - A·x_nonbasic with structurals at lower.
	res := r.work
	copy(res, r.rhs)
	for j := 0; j < r.ns; j++ {
		if x := r.lo[j]; x != 0 {
			ind, val := r.csc.col(j)
			for k, row := range ind {
				res[row] -= val[k] * x
			}
		}
	}
	for i, c := range r.p.cons {
		aj := r.artLo + i
		r.lo[aj], r.hi[aj] = 0, 0 // fixed unless it becomes basic below
		basic := -1
		switch {
		case c.Op == LE && res[i] >= 0:
			basic = int(r.slackCol[i])
		case c.Op == GE && res[i] <= 0:
			basic = int(r.slackCol[i])
		default:
			if res[i] < 0 {
				r.artSign[i] = -1
			}
			r.hi[aj] = math.Inf(1)
			basic = aj
		}
		r.status[basic] = isBasic
		r.rowVar[i] = int32(basic)
	}
	r.rowVar, _ = r.fac.refactor(r.m, r.rowVar, r.colOf, r.work2, nil) // unit columns: never singular
	r.computeXB()
}

// initWarm seeds the solve from a snapshot: position for position when
// it matches the problem, by name otherwise. Either way the seed is a
// set of statuses and candidate basic columns, not yet a basis; the
// repairing refactorization drops candidates that find no pivot and
// gives every row left over its slack (its zero-fixed artificial on an
// EQ row), so any snapshot of any problem ends as a nonsingular basis
// of this one. It reports false only on a numerical failure.
func (r *revised) initWarm(b *Basis) bool {
	r.setPhase2Costs()
	var candidates []int32
	if b.matches(r.p) {
		copy(r.status[:r.artLo], b.status)
		for i := range b.artSign {
			r.artSign[i] = float64(b.artSign[i])
		}
		candidates = b.rowVar
	} else {
		b.remap(r)
		for j := 0; j < r.artLo; j++ {
			if r.status[j] == isBasic {
				candidates = append(candidates, int32(j))
			}
		}
	}
	// Artificials are fixed at zero in a warm solve even when basic.
	for i := 0; i < r.m; i++ {
		aj := r.artLo + i
		r.lo[aj], r.hi[aj] = 0, 0
		r.status[aj] = atLower
	}
	for j := 0; j < r.artLo; j++ {
		if r.status[j] == atUpper && math.IsInf(r.hi[j], 1) {
			r.status[j] = atLower
		}
	}
	rowVar, ok := r.fac.refactor(r.m, candidates, r.colOf, r.work2, r.unitCol)
	if !ok {
		return false
	}
	for _, j := range candidates {
		r.status[j] = atLower
	}
	for _, j := range rowVar {
		r.status[j] = isBasic
	}
	r.rowVar = rowVar
	r.sinceRefactor = 0
	r.computeXB()
	return true
}

// unitCol returns the unit column of a row: its slack, or its
// artificial on an EQ row.
func (r *revised) unitCol(row int32) int32 {
	if sc := r.slackCol[row]; sc >= 0 {
		return sc
	}
	return int32(r.artLo) + row
}

// snapshot captures the current basis for warm-starting later solves.
func (r *revised) snapshot() *Basis {
	b := &Basis{
		ns: r.ns, m: r.m,
		ops:      make([]Op, r.m),
		colNames: make([]string, r.ns),
		rowNames: make([]string, r.m),
		status:   make([]int8, r.artLo),
		rowVar:   make([]int32, r.m),
		artSign:  make([]int8, r.m),
	}
	for i, c := range r.p.cons {
		b.ops[i] = c.Op
		b.rowNames[i] = c.Name
	}
	for j, v := range r.p.vars {
		b.colNames[j] = v.name
	}
	copy(b.status, r.status[:r.artLo])
	copy(b.rowVar, r.rowVar)
	for i, s := range r.artSign {
		b.artSign[i] = int8(s)
	}
	return b
}

// refactorNow rebuilds the eta file from the current basic columns and
// recomputes the basic values and r.d from scratch (flushing drift).
func (r *revised) refactorNow() bool {
	rowVar, ok := r.fac.refactor(r.m, r.rowVar, r.colOf, r.work2, nil)
	if !ok {
		return false
	}
	r.rowVar = rowVar
	r.sinceRefactor = 0
	r.computeXB()
	r.refresh()
	return true
}

// refactorEvery bounds the eta-file length before a rebuild.
func (r *revised) refactorEvery() int {
	n := r.m / 4
	if n < 32 {
		n = 32
	}
	if n > 120 {
		n = 120
	}
	return n
}

// computeXB recomputes x_B = B⁻¹(b - N·x_N) into xB.
func (r *revised) computeXB() {
	v := r.work
	copy(v, r.rhs)
	for j := 0; j < r.artLo; j++ {
		if r.status[j] == isBasic {
			continue
		}
		if x := r.boundValue(j); x != 0 {
			ind, val := r.csc.col(j)
			for k, row := range ind {
				v[row] -= val[k] * x
			}
		}
	}
	// Nonbasic artificials are fixed at zero: no contribution.
	r.fac.ftran(v)
	copy(r.xB, v)
}

// computeY computes the simplex multipliers y = c_B B⁻¹ into r.y.
func (r *revised) computeY() {
	for i, j := range r.rowVar {
		r.y[i] = r.cost[j]
	}
	r.fac.btran(r.y)
}

// reducedCost returns d_j = c_j - y·a_j for a CSC column.
func (r *revised) reducedCost(j int) float64 {
	d := r.cost[j]
	ind, val := r.csc.col(j)
	for k, row := range ind {
		d -= r.y[row] * val[k]
	}
	return d
}

// refresh recomputes r.d (0 when basic): on entry to each simplex loop,
// before the primal accepts optimality or a ray and after every
// refactorization, so carryDuals' drift never outlives one eta file.
func (r *revised) refresh() {
	r.stale = false
	r.computeY()
	for j := range r.d {
		if r.d[j] = 0; r.status[j] != isBasic {
			r.d[j] = r.reducedCost(j)
		}
	}
}

// carryDuals updates r.d, before pivotStep, across the pivot that
// brings `enter` in on row `leave` (pivot: the element the ratio test
// accepted) from pivotRow(leave): y moves by θ·ρ, θ = d_enter/pivot, so
// d_j -= θ·α_j where the row touches, d_enter = 0 and d_leaving = -θ.
func (r *revised) carryDuals(leave, enter int, pivot float64) {
	r.stale = true
	theta := r.d[enter] / pivot
	for _, j := range r.rowCols {
		if r.status[j] != isBasic {
			r.d[j] -= theta * r.alpha[j]
		}
	}
	r.d[enter] = 0
	if lv := r.rowVar[leave]; int(lv) < r.artLo {
		r.d[lv] = -theta
	}
}

// ftranCol scatters column j into work and FTRANs it: work = B⁻¹ a_j.
func (r *revised) ftranCol(j int) []float64 {
	w := r.work
	for i := range w {
		w[i] = 0
	}
	ind, val := r.colOf(int32(j))
	for k, row := range ind {
		w[row] = val[k]
	}
	r.fac.ftran(w)
	return w
}

// pivotRow computes ρ = e_leaveᵀB⁻¹ (into r.work2) and α_j = ρ·a_j over
// nonbasic structural and slack columns, listing ascending in r.rowCols
// each j whose α may be nonzero. A hypersparse ρ is scattered through
// the row-wise copy in ascending row order: each α_j sums the column
// loop's nonzero products in its order (the rest add ±0), so the bits
// are those of the column loop, which a ρ whose BTRAN went dense takes.
func (r *revised) pivotRow(leave int) {
	for _, j := range r.rowCols {
		r.alpha[j] = 0
	}
	r.rowCols = r.rowCols[:0]
	clear(r.work2)
	rows := r.fac.btranUnit(int32(leave), r.work2)
	if rows == nil {
		for j := 0; j < r.artLo; j++ {
			if r.status[j] != isBasic {
				ind, val := r.csc.col(j)
				for k, row := range ind {
					r.alpha[j] += r.work2[row] * val[k]
				}
				r.rowCols = append(r.rowCols, j)
			}
		}
		return
	}
	if r.csr == nil {
		r.csr = r.csc.transpose()
	}
	slices.Sort(rows)
	for _, i := range rows {
		x := r.work2[i] // a zero here (cancellation) adds ±0
		ind, val := r.csr.col(int(i))
		for k, j := range ind {
			if r.status[j] != isBasic {
				if r.alpha[j] == 0 { // first touch, give or take a cancellation
					r.rowCols = append(r.rowCols, int(j))
				}
				r.alpha[j] += x * val[k]
			}
		}
	}
	slices.Sort(r.rowCols)
	r.rowCols = slices.Compact(r.rowCols)
}

// price selects the entering column and its direction (+1 from lower,
// -1 from upper) from r.d. Artificial columns never price in: once
// nonbasic they are fixed at zero. Returns -1 at optimality.
func (r *revised) price(bland bool) (int, float64) {
	enter := -1
	sigma := 1.0
	best := -eps
	for j, d := range r.d {
		st := r.status[j]
		if st == isBasic || r.hi[j]-r.lo[j] <= 0 {
			continue
		}
		var score float64
		if st == atLower {
			score = d // want d < -eps
		} else {
			score = -d // at upper: want d > eps
		}
		if score < -eps {
			if bland {
				enter = j
				if st == atUpper {
					sigma = -1
				}
				return enter, sigma
			}
			if score < best {
				best = score
				enter = j
				if st == atUpper {
					sigma = -1
				} else {
					sigma = 1
				}
			}
		}
	}
	return enter, sigma
}

// aborted polls the caller's cancel hook on a pivot-count cadence so
// deadline and chaos-budget aborts land mid-iteration.
func (r *revised) aborted() bool {
	return r.cancel != nil && r.pivots%cancelCheckEvery == 0 && r.cancel() != nil
}

// primal runs bounded primal simplex iterations to optimality on r.d.
func (r *revised) primal(phase1 bool) Status {
	r.refresh()
	for {
		if r.pivots >= maxPivots {
			return IterLimit
		}
		if r.aborted() {
			return Aborted
		}
		bland := r.rule == Bland || (r.rule != Dantzig && r.pivots >= blandThreshold)
		enter, sigma := r.price(bland)
		if enter < 0 && r.stale {
			r.refresh() // confirm the verdict on recomputed reduced costs
			continue
		}
		if enter < 0 {
			return Optimal
		}
		w := r.ftranCol(enter)

		// Ratio test: the entering variable moves by sigma·t from its
		// bound; basic i changes at rate -sigma·w_i. Blockers are basic
		// variables hitting a bound, or the entering variable reaching
		// its opposite bound (a bound flip, no basis change).
		tMax := r.hi[enter] - r.lo[enter]
		leave := -1
		leaveToUpper := false
		bestT := math.Inf(1)
		for i := 0; i < r.m; i++ {
			delta := sigma * w[i]
			bi := r.rowVar[i]
			if delta > pivotTol {
				t := (r.xB[i] - r.lo[bi]) / delta
				if t < 0 {
					t = 0
				}
				if t < bestT-eps || (t < bestT+eps && (leave < 0 || bi < r.rowVar[leave])) {
					bestT = t
					leave = i
					leaveToUpper = false
				}
			} else if delta < -pivotTol {
				if hb := r.hi[bi]; !math.IsInf(hb, 1) {
					t := (hb - r.xB[i]) / (-delta)
					if t < 0 {
						t = 0
					}
					if t < bestT-eps || (t < bestT+eps && (leave < 0 || bi < r.rowVar[leave])) {
						bestT = t
						leave = i
						leaveToUpper = true
					}
				}
			}
		}
		if leave < 0 && math.IsInf(tMax, 1) {
			if r.stale {
				r.refresh() // confirm the ray on recomputed reduced costs
				continue
			}
			if phase1 {
				// Phase-1 objective is bounded below by 0; a free ray
				// means numerical trouble. Mirror the dense engine.
				return Infeasible
			}
			return Unbounded
		}
		if leave < 0 || tMax <= bestT {
			// Bound flip: the entering variable crosses to its other
			// bound; the basis is unchanged.
			r.pivots++
			for i := 0; i < r.m; i++ {
				r.xB[i] -= sigma * tMax * w[i]
			}
			if r.status[enter] == atLower {
				r.status[enter] = atUpper
			} else {
				r.status[enter] = atLower
			}
			continue
		}
		// A suspiciously small pivot right after a long eta file is
		// usually drift: refactorize and retry the iteration.
		if pv := math.Abs(w[leave]); pv < stablePivotTol && r.sinceRefactor > 0 {
			if !r.refactorNow() {
				return IterLimit
			}
			continue
		}
		r.pivotRow(leave)
		r.carryDuals(leave, enter, w[leave])
		r.pivotStep(leave, enter, sigma, bestT, leaveToUpper, w)
	}
}

// pivotStep applies one basis exchange: entering column `enter` moves
// by sigma·t, basic row `leave` leaves at the bound it hit.
func (r *revised) pivotStep(leave, enter int, sigma, t float64, leaveToUpper bool, w []float64) {
	r.pivots++
	for i := 0; i < r.m; i++ {
		if i == leave {
			continue
		}
		r.xB[i] -= sigma * t * w[i]
	}
	lv := r.rowVar[leave]
	if leaveToUpper {
		r.status[lv] = atUpper
	} else {
		r.status[lv] = atLower
	}
	if int(lv) >= r.artLo {
		// An artificial that leaves the basis never returns.
		r.lo[lv], r.hi[lv] = 0, 0
		r.status[lv] = atLower
	}
	var entVal float64
	if sigma > 0 {
		entVal = r.lo[enter] + t
	} else {
		entVal = r.hi[enter] - t
	}
	r.xB[leave] = entVal
	r.status[enter] = isBasic
	r.rowVar[leave] = int32(enter)
	r.fac.push(w, int32(leave))
	r.sinceRefactor++
	if r.sinceRefactor >= r.refactorEvery() {
		r.refactorNow()
	}
}

// infeasSum returns the total residual infeasibility (the phase-1
// objective): the mass still carried by basic artificials.
func (r *revised) infeasSum() float64 {
	s := 0.0
	for i, j := range r.rowVar {
		if int(j) >= r.artLo && r.xB[i] > 0 {
			s += r.xB[i]
		}
	}
	return s
}

// setPhase1Costs prices only the artificials.
func (r *revised) setPhase1Costs() {
	for j := range r.cost {
		if j >= r.artLo {
			r.cost[j] = 1
		} else {
			r.cost[j] = 0
		}
	}
}

// setPhase2Costs installs the real objective (negated for
// maximization, matching the dense engine's internal minimization).
func (r *revised) setPhase2Costs() {
	for j := range r.cost {
		r.cost[j] = 0
	}
	for j, v := range r.p.vars {
		c := v.cost
		if r.p.maximize {
			c = -c
		}
		r.cost[j] = c
	}
}

// fixArtificials pins every artificial to zero after phase 1.
func (r *revised) fixArtificials() {
	for i := 0; i < r.m; i++ {
		aj := r.artLo + i
		r.lo[aj], r.hi[aj] = 0, 0
	}
}

// run executes the cold two-phase solve.
func (r *revised) run() Status {
	needPhase1 := false
	for _, j := range r.rowVar {
		if int(j) >= r.artLo {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		r.setPhase1Costs()
		if st := r.primal(true); st != Optimal {
			return st
		}
		if r.infeasSum() > 1e-7 {
			return Infeasible
		}
		r.fixArtificials()
	}
	r.setPhase2Costs()
	return r.primal(false)
}

// Reasons a warm start is abandoned for a cold solve; "" means the
// warm result stands.
const (
	warmOK         = ""
	warmPivotCap   = "pivot-cap"
	warmSingular   = "singular"
	warmInfeasible = "infeasible"
)

// warmRepairPivotCap bounds the dual-simplex repair of a warm basis.
// The dual iteration has no anti-cycling rule, and a repair that long
// has lost to the cold solve anyway.
const warmRepairPivotCap = 5000

// runWarm solves from the basis initWarm installed (phase-2 costs
// already set). A primal-feasible basis goes straight to the primal
// simplex. Any other is first made dual-feasible — boxed nonbasics
// flip to their other bound, unboxed ones have their cost shifted to a
// zero reduced cost — then the dual simplex restores primal
// feasibility, the true costs return, and primal iterations clean up
// what the shifts (and degenerate dual exits) left. The second return
// names why the caller should cold start instead: the repair hit its
// pivot cap, a refactorization went singular, or the dual simplex
// declared infeasibility — a verdict that would silently prune
// branch-and-bound subtrees if wrong, so it is always cold-confirmed.
func (r *revised) runWarm() (Status, string) {
	if !r.primalFeasible() {
		r.makeDualFeasible()
		st := r.dualSimplex()
		r.setPhase2Costs()
		switch {
		case st == Infeasible:
			return st, warmInfeasible
		case st == IterLimit && r.pivots >= warmRepairPivotCap:
			return st, warmPivotCap
		case st == IterLimit:
			return st, warmSingular
		case st != Optimal:
			return st, warmOK
		}
	}
	st := r.primal(false)
	if st == IterLimit && r.pivots < maxPivots {
		return st, warmSingular
	}
	return st, warmOK
}

// makeDualFeasible makes every nonbasic resting position consistent
// with its reduced cost: a column priced to move off its bound is
// flipped to the other bound when it has one and has its cost shifted
// by the offending reduced cost when it does not. The caller restores
// the true costs with setPhase2Costs.
func (r *revised) makeDualFeasible() {
	r.refresh()
	flipped := false
	for j, d := range r.d {
		st := r.status[j]
		if st == isBasic || r.hi[j]-r.lo[j] <= 0 {
			continue
		}
		switch {
		case st == atLower && d < -feasTol && math.IsInf(r.hi[j], 1):
			r.cost[j] -= d
			r.d[j] = 0
		case st == atLower && d < -feasTol:
			r.status[j] = atUpper
			flipped = true
		case st == atUpper && d > feasTol:
			r.status[j] = atLower
			flipped = true
		}
	}
	if flipped {
		r.computeXB()
	}
}

// primalFeasible reports whether every basic value is within bounds.
func (r *revised) primalFeasible() bool {
	for i, j := range r.rowVar {
		if r.xB[i] < r.lo[j]-feasTol || r.xB[i] > r.hi[j]+feasTol {
			return false
		}
	}
	return true
}

// dualSimplex restores primal feasibility from a dual-feasible basis:
// the standard bounded-variable dual iteration (leaving row by largest
// bound violation, entering column by the dual ratio test on r.d).
// Returns Optimal once primal feasible, Infeasible when dual-unbounded
// (the problem has no feasible point), IterLimit at warmRepairPivotCap.
func (r *revised) dualSimplex() Status {
	for {
		if r.pivots >= warmRepairPivotCap {
			return IterLimit
		}
		if r.aborted() {
			return Aborted
		}
		leave := -1
		worst := feasTol
		below := false
		for i, j := range r.rowVar {
			if v := r.lo[j] - r.xB[i]; v > worst {
				worst = v
				leave = i
				below = true
			}
			if v := r.xB[i] - r.hi[j]; v > worst {
				worst = v
				leave = i
				below = false
			}
		}
		if leave < 0 {
			return Optimal
		}
		r.pivotRow(leave)
		enter := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		for _, j := range r.rowCols {
			st := r.status[j]
			if st == isBasic || r.hi[j]-r.lo[j] <= 0 {
				continue
			}
			alpha := r.alpha[j]
			// Eligibility: moving j in its feasible direction must push
			// the leaving basic toward its violated bound.
			ok := false
			if below {
				ok = (st == atLower && alpha < -pivotTol) || (st == atUpper && alpha > pivotTol)
			} else {
				ok = (st == atLower && alpha > pivotTol) || (st == atUpper && alpha < -pivotTol)
			}
			if !ok {
				continue
			}
			mag := r.d[j]
			if st == atUpper {
				mag = -mag
			}
			if mag < 0 {
				mag = 0 // tolerance noise; treat as degenerate
			}
			ratio := mag / math.Abs(alpha)
			if ratio < bestRatio-eps || (ratio < bestRatio+eps && math.Abs(alpha) > math.Abs(bestAlpha)) {
				bestRatio = ratio
				bestAlpha = alpha
				enter = j
			}
		}
		if enter < 0 {
			return Infeasible // dual unbounded
		}
		w := r.ftranCol(enter)
		if pv := math.Abs(w[leave]); pv < stablePivotTol && r.sinceRefactor > 0 {
			if !r.refactorNow() {
				return IterLimit
			}
			continue
		}
		sigma := 1.0
		if r.status[enter] == atUpper {
			sigma = -1
		}
		lv := r.rowVar[leave]
		target := r.lo[lv]
		if !below {
			target = r.hi[lv]
		}
		t := (r.xB[leave] - target) / (sigma * w[leave])
		if t < 0 {
			t = 0
		}
		r.carryDuals(leave, enter, bestAlpha)
		r.pivotStep(leave, enter, sigma, t, !below, w)
	}
}

// extract recovers structural values, clamping tolerance noise at the
// bounds exactly as the dense engine does for zero.
func (r *revised) extract() []float64 {
	vals := make([]float64, r.ns)
	for j := 0; j < r.ns; j++ {
		if r.status[j] != isBasic {
			vals[j] = r.boundValue(j)
		}
	}
	for i, j := range r.rowVar {
		if int(j) < r.ns {
			vals[j] = r.xB[i]
		}
	}
	for j := range vals {
		if vals[j] < 0 && vals[j] > -1e-7 {
			vals[j] = 0
		}
		if hb := r.hi[j]; vals[j] > hb && vals[j] < hb+1e-7 {
			vals[j] = hb
		}
	}
	return vals
}

// extractDuals returns the user-constraint duals in the problem's own
// sense. With rows stored unnegated, the multiplier of row i is
// exactly the derivative of the internal (minimization) objective with
// respect to b_i; maximization flips the sign back to the user sense.
func (r *revised) extractDuals() []float64 {
	r.setPhase2Costs()
	r.computeY()
	duals := make([]float64, r.m)
	copy(duals, r.y)
	if r.p.maximize {
		for i := range duals {
			duals[i] = -duals[i]
		}
	}
	return duals
}
