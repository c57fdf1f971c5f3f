package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The column-by-column simplex kernel the pivot-row kernel replaced,
// kept as its reference: every primal iteration re-prices every column
// from a fresh BTRAN of the multipliers, and every dual iteration runs
// two BTRANs (the pivot row and the multipliers) and computes α_j = ρ·a_j
// for every nonbasic column. primalRef, priceRef and dualSimplexRef are
// the replaced primal, price and dualSimplex, unchanged but for their
// names; runRef and runWarmRef are run and runWarm calling them.

func (r *revised) runRef() Status {
	needPhase1 := false
	for _, j := range r.rowVar {
		if int(j) >= r.artLo {
			needPhase1 = true
			break
		}
	}
	if needPhase1 {
		r.setPhase1Costs()
		if st := r.primalRef(true); st != Optimal {
			return st
		}
		if r.infeasSum() > 1e-7 {
			return Infeasible
		}
		r.fixArtificials()
	}
	r.setPhase2Costs()
	return r.primalRef(false)
}

func (r *revised) runWarmRef() (Status, string) {
	if !r.primalFeasible() {
		r.makeDualFeasible()
		st := r.dualSimplexRef()
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
	st := r.primalRef(false)
	if st == IterLimit && r.pivots < maxPivots {
		return st, warmSingular
	}
	return st, warmOK
}

// priceRef selects the entering column and its direction (+1 from lower,
// -1 from upper). Artificial columns never price in: once nonbasic
// they are fixed at zero. Returns -1 at optimality.
func (r *revised) priceRef(bland bool) (int, float64) {
	enter := -1
	sigma := 1.0
	best := -eps
	for j := 0; j < r.artLo; j++ {
		st := r.status[j]
		if st == isBasic || r.hi[j]-r.lo[j] <= 0 {
			continue
		}
		d := r.reducedCost(j)
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

// primalRef runs bounded primal simplex iterations to optimality.
func (r *revised) primalRef(phase1 bool) Status {
	for {
		if r.pivots >= maxPivots {
			return IterLimit
		}
		if r.aborted() {
			return Aborted
		}
		bland := r.rule == Bland || (r.rule != Dantzig && r.pivots >= blandThreshold)
		r.computeY()
		enter, sigma := r.priceRef(bland)
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
		r.pivotStep(leave, enter, sigma, bestT, leaveToUpper, w)
	}
}

// dualSimplexRef restores primal feasibility from a dual-feasible basis:
// the standard bounded-variable dual iteration (leaving row by largest
// bound violation, entering column by the dual ratio test). Returns
// Optimal once primal feasible, Infeasible when dual-unbounded (the
// problem has no feasible point), IterLimit at warmRepairPivotCap.
func (r *revised) dualSimplexRef() Status {
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
		// rho = row `leave` of B⁻¹; alpha_j = rho·a_j.
		rho := r.work2
		for i := range rho {
			rho[i] = 0
		}
		rho[leave] = 1
		r.fac.btran(rho)
		r.computeY()

		enter := -1
		bestRatio := math.Inf(1)
		bestAlpha := 0.0
		for j := 0; j < r.artLo; j++ {
			st := r.status[j]
			if st == isBasic || r.hi[j]-r.lo[j] <= 0 {
				continue
			}
			alpha := 0.0
			ind, val := r.csc.col(j)
			for k, row := range ind {
				alpha += rho[row] * val[k]
			}
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
			d := r.reducedCost(j)
			mag := d
			if st == atUpper {
				mag = -d
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
		r.pivotStep(leave, enter, sigma, t, !below, w)
	}
}

// kernelCase is one solve both kernels run from the same start: a cold
// two-phase solve, or a warm one from a basis, with bound overrides for
// a branch-and-bound child.
type kernelCase struct {
	name   string
	p      *Problem
	lo, hi []float64
	warm   *Basis
	rule   PivotRule
}

// start builds the state the case runs from; false when there is none
// (bound-infeasible overrides, a warm seed that failed numerically).
func (c kernelCase) start() (*revised, bool) {
	r, err := newRevisedBase(c.p, c.lo, c.hi)
	if err != nil {
		return nil, false
	}
	r.rule = c.rule
	if c.warm == nil {
		r.initCold()
		return r, true
	}
	return r, r.initWarm(c.warm)
}

// randomSparseLP is a covering LP like randomCoverLP with only 2-4
// nonzeros per row, so that some pivot rows stay sparse.
func randomSparseLP(nVars, nRows int, seed uint64) *Problem {
	r := lcg(seed)
	p := NewProblem()
	for j := 0; j < nVars; j++ {
		p.AddVariable(fmt.Sprintf("x%d", j), 0, 1+4*r.next(), 0.5+r.next())
	}
	for i := 0; i < nRows; i++ {
		var terms []Term
		maxAct := 0.0
		for k := 2 + int(3*r.next()); k > 0; k-- {
			j := int(r.next() * float64(nVars))
			c := 0.5 + r.next()
			terms = append(terms, Term{Var: VarID(j), Coef: c})
			maxAct += c * p.vars[j].upper
		}
		if i%5 == 4 {
			p.AddConstraint(Constraint{Terms: terms, Op: LE, RHS: 0.8 * maxAct})
		} else {
			p.AddConstraint(Constraint{Terms: terms, Op: GE, RHS: 0.3 * maxAct})
		}
	}
	return p
}

// kernelCases draws the differential suite from the generators the
// engine tests use: random LPs of every status, the degenerate
// instances under both pivot rules, covering LPs large enough to
// refactorize mid-solve, foreign warm bases, and branch-and-bound
// children warm-started from their parent's basis.
func kernelCases() []kernelCase {
	var cases []kernelCase
	rng := rand.New(rand.NewSource(42))
	for k := 0; k < 200; k++ {
		cases = append(cases, kernelCase{name: fmt.Sprintf("random %d", k), p: randomLP(rng)})
	}
	for name, build := range degenerateLPs() {
		for _, rule := range []PivotRule{Auto, Bland} {
			cases = append(cases, kernelCase{name: fmt.Sprintf("%s rule %d", name, rule), p: build(), rule: rule})
		}
	}
	var large []*Problem
	for k, n := range []int{40, 80, 150} {
		large = append(large, randomCoverLP(n, n*3/2, uint64(k+1)), randomSparseLP(n, n*2, uint64(k+1)))
	}
	for k, p := range large {
		cases = append(cases, kernelCase{name: fmt.Sprintf("large %d", k), p: p})
		// Children: a few variables pinned below their optimal value.
		parent, err := p.solveLPRevised(nil, nil, Options{})
		if err != nil {
			continue
		}
		for c := 0; c < 4; c++ {
			hi := make([]float64, len(p.vars))
			for j, v := range p.vars {
				hi[j] = v.upper
			}
			for j := c; j < len(hi); j += 7 {
				hi[j] = parent.values[j] / 2
			}
			cases = append(cases, kernelCase{name: fmt.Sprintf("large %d child %d", k, c), p: p, hi: hi, warm: parent.Basis()})
		}
	}
	rng = rand.New(rand.NewSource(23))
	for k := 0; k < 300; k++ {
		donor, err := randomLP(rng).SolveOpts(Options{Engine: EngineRevised})
		p := randomLP(rng)
		if err == nil {
			cases = append(cases, kernelCase{name: fmt.Sprintf("foreign %d", k), p: p, warm: donor.Basis()})
		}
	}
	rng = rand.New(rand.NewSource(99))
	for k := 0; k < 60; k++ {
		p := randomMILP(rng)
		root, err := p.solveLPRevised(nil, nil, Options{})
		if err != nil {
			continue
		}
		for j, v := range p.vars {
			x := root.values[j]
			if !v.integral || math.Abs(x-math.Round(x)) <= intTol {
				continue
			}
			for _, up := range []bool{false, true} {
				lo, hi := make([]float64, len(p.vars)), make([]float64, len(p.vars))
				for i, w := range p.vars {
					lo[i], hi[i] = w.lower, w.upper
				}
				if up {
					lo[j] = math.Ceil(x)
				} else {
					hi[j] = math.Floor(x)
				}
				cases = append(cases, kernelCase{name: fmt.Sprintf("milp %d x%d up=%v", k, j, up), p: p, lo: lo, hi: hi, warm: root.Basis()})
			}
		}
	}
	return cases
}

// TestPivotRowMatchesReference runs every kernel case through the
// column-by-column reference kernel and through the pivot-row kernel.
// Carrying the reduced costs is exact in arithmetic, not in floating
// point, so the two must agree on the verdict and, at an optimum, on
// the objective to 1e-9 relative, with the pivot-row result primal
// feasible to feasTol. The pivot row itself is bit for bit the column
// loop's: at the reference's final basis every row's α and ρ are
// checked against the column loop over a dense BTRAN. And a
// refactorization must leave the carried reduced costs exactly the
// recomputed ones.
func TestPivotRowMatchesReference(t *testing.T) {
	cases := kernelCases()
	samePath, sparse, dense := 0, 0, 0
	for _, c := range cases {
		ref, ok := c.start()
		if !ok {
			continue
		}
		got, _ := c.start()
		var refSt, gotSt Status
		var refFb, gotFb string
		if c.warm == nil {
			refSt, gotSt = ref.runRef(), got.run()
		} else {
			refSt, refFb = ref.runWarmRef()
			gotSt, gotFb = got.runWarm()
		}
		if refSt != gotSt || refFb != gotFb {
			t.Fatalf("%s: reference %v %q, pivot-row kernel %v %q", c.name, refSt, refFb, gotSt, gotFb)
		}
		if ref.pivots == got.pivots && bitsEqual(ref.xB, got.xB) {
			samePath++
		}
		if refSt == IterLimit {
			continue // a singular refactorization: no basis to inspect
		}
		if refSt == Optimal {
			want, have := objectiveAt(ref), objectiveAt(got)
			if math.Abs(want-have) > 1e-9*(1+math.Abs(want)) {
				t.Fatalf("%s: objective %.15g, reference %.15g", c.name, have, want)
			}
			for i, j := range got.rowVar {
				if got.xB[i] < got.lo[j]-feasTol || got.xB[i] > got.hi[j]+feasTol {
					t.Fatalf("%s: basic column %d at %g outside [%g, %g]", c.name, j, got.xB[i], got.lo[j], got.hi[j])
				}
			}
		}
		s, d := checkPivotRows(t, c.name, ref)
		sparse, dense = sparse+s, dense+d
		for j := range got.d {
			got.d[j] = math.NaN()
		}
		if !got.refactorNow() {
			continue
		}
		for j, x := range got.d {
			want := 0.0
			if got.status[j] != isBasic {
				want = got.reducedCost(j)
			}
			if math.Float64bits(x) != math.Float64bits(want) {
				t.Fatalf("%s: after a refactorization d[%d] = %v, recomputed %v", c.name, j, x, want)
			}
		}
	}
	t.Logf("%d cases, %d on the reference's pivot path bit for bit; pivot rows checked: %d hypersparse, %d dense BTRANs", len(cases), samePath, sparse, dense)
	if sparse == 0 || dense == 0 {
		t.Fatalf("btranUnit paths exercised: %d hypersparse, %d dense", sparse, dense)
	}
}

// TestPrimalConfirmsRayOnFreshReducedCosts drifts one carried reduced
// cost so that a column with no blocking row looks improving: min y + z
// subject to y - z >= rhs, where y (rhs 0, phase 2) or z (rhs 1, phase
// 1) may increase forever. The primal must recompute r.d before it
// calls the LP unbounded or, in phase 1, infeasible; on fresh values
// the column does not price in and the optimum y = rhs stands.
func TestPrimalConfirmsRayOnFreshReducedCosts(t *testing.T) {
	for _, c := range []struct {
		rhs   float64
		drift VarID
	}{{0, 0}, {1, 1}} {
		p := NewProblem()
		p.AddVariable("y", 0, math.Inf(1), 1)
		p.AddVariable("z", 0, math.Inf(1), 1)
		p.AddConstraint(Constraint{Terms: []Term{{Var: 0, Coef: 1}, {Var: 1, Coef: -1}}, Op: GE, RHS: c.rhs})
		r, err := newRevisedBase(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r.initCold()
		drifted := false
		r.cancel = func() error { // polled after the loop's entry refresh
			if !drifted {
				drifted, r.d[c.drift], r.stale = true, -2, true
			}
			return nil
		}
		st := r.run()
		if !drifted || st != Optimal {
			t.Fatalf("rhs %v, drifted d[%d]: status %v, want Optimal", c.rhs, c.drift, st)
		}
		if x := r.extract(); x[0] != c.rhs || x[1] != 0 {
			t.Fatalf("rhs %v: (y, z) = %v, want (%v, 0)", c.rhs, x, c.rhs)
		}
	}
}

// checkPivotRows compares, at r's current basis, the pivotRow of every
// row (of 40 spread over a larger basis) with the column loop over a
// dense BTRAN of the same unit vector, and btranUnit's ρ with btran's:
// bit for bit, a zero of either sign matching a zero. It returns how
// many of those BTRANs stayed hypersparse and how many finished over
// the whole eta file (btranUnit leaves its heap non-empty only then).
func checkPivotRows(t *testing.T, name string, r *revised) (sparse, dense int) {
	t.Helper()
	rho := make([]float64, r.m)
	for leave := 0; leave < r.m; leave += 1 + r.m/40 {
		clear(rho)
		rho[leave] = 1
		r.fac.btran(rho)
		r.pivotRow(leave)
		if len(r.fac.heap) > 0 {
			dense++
		} else {
			sparse++
		}
		for i, x := range rho {
			if r.work2[i] != x {
				t.Fatalf("%s row %d: btranUnit ρ[%d] = %v, btran %v", name, leave, i, r.work2[i], x)
			}
		}
		checkAlpha(t, fmt.Sprintf("%s row %d", name, leave), r, rho)
	}
	return sparse, dense
}

// checkAlpha compares r's pivot row with the column loop over rho.
func checkAlpha(t *testing.T, name string, r *revised, rho []float64) {
	t.Helper()
	listed := make(map[int]bool, len(r.rowCols))
	for k, j := range r.rowCols {
		if k > 0 && j <= r.rowCols[k-1] {
			t.Fatalf("%s: pivot-row columns not ascending: %v", name, r.rowCols)
		}
		listed[j] = true
	}
	for j := 0; j < r.artLo; j++ {
		if r.status[j] == isBasic {
			continue
		}
		alpha := 0.0
		ind, val := r.csc.col(j)
		for k, row := range ind {
			alpha += rho[row] * val[k]
		}
		if r.alpha[j] != alpha || (!listed[j] && alpha != 0) {
			t.Fatalf("%s: α[%d] = %v (listed %v), column loop %v", name, j, r.alpha[j], listed[j], alpha)
		}
	}
}

// objectiveAt is the user-sense objective of r's current point.
func objectiveAt(r *revised) float64 {
	obj := 0.0
	for j, x := range r.extract() {
		obj += r.p.vars[j].cost * x
	}
	return obj
}

func bitsEqual(a, b []float64) bool {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}
