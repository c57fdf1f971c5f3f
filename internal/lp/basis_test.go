package lp

import (
	"math"
	"math/rand"
	"testing"
)

// refactorDense is the O(m²) refactorization the sparse one replaced,
// kept as its reference: every column zeroes and scans all of work and
// FTRANs through the whole eta file. The sparse routine must reproduce
// its pivots and its eta file bit for bit.
func refactorDense(f *factorization, m int, basic []int32, colOf func(j int32) ([]int32, []float64), work []float64) ([]int32, bool) {
	f.reset(m)
	order := make([]int32, len(basic))
	copy(order, basic)
	nnzOf := func(j int32) int {
		ind, _ := colOf(j)
		return len(ind)
	}
	for i := 1; i < len(order); i++ {
		j, nj := order[i], nnzOf(order[i])
		k := i - 1
		for k >= 0 && nnzOf(order[k]) > nj {
			order[k+1] = order[k]
			k--
		}
		order[k+1] = j
	}
	rowUsed := make([]bool, m)
	rowVar := make([]int32, m)
	for i := range rowVar {
		rowVar[i] = -1
	}
	for _, j := range order {
		ind, val := colOf(j)
		for i := range work {
			work[i] = 0
		}
		for k, r := range ind {
			work[r] = val[k]
		}
		f.ftran(work)
		best, bestAbs := int32(-1), singularTol
		for r := 0; r < m; r++ {
			if rowUsed[r] {
				continue
			}
			if a := math.Abs(work[r]); a > bestAbs {
				bestAbs = a
				best = int32(r)
			}
		}
		if best < 0 {
			return nil, false
		}
		unit := work[best] == 1
		for i, x := range work {
			if int32(i) != best && x != 0 {
				unit = false
			}
		}
		if !unit {
			f.push(work, best)
		}
		rowUsed[best] = true
		rowVar[best] = j
	}
	return rowVar, true
}

// testCols is a column pool for refactorization tests: column j has
// nonzeros ind[j]/val[j].
type testCols struct {
	ind [][]int32
	val [][]float64
}

func (c *testCols) colOf(j int32) ([]int32, []float64) { return c.ind[j], c.val[j] }

func (c *testCols) add(ind []int32, val []float64) int32 {
	c.ind = append(c.ind, ind)
	c.val = append(c.val, val)
	return int32(len(c.ind) - 1)
}

// randomBasis draws m candidate columns over m rows. kind selects the
// mix: "unit" is all +e_i, "slack" mixes ±e_i with sparse structurals,
// "dense" is mostly full columns, "singular" is "slack" with a repeated
// column and a repeated unit row, so no pivot order can succeed.
func randomBasis(rng *rand.Rand, m int, kind string) (*testCols, []int32) {
	cols := &testCols{}
	var basic []int32
	sparse := func(nnz int) ([]int32, []float64) {
		rows := rng.Perm(m)[:nnz]
		ind := make([]int32, 0, nnz)
		// CSC columns list rows in ascending order.
		for r := 0; r < m; r++ {
			for _, x := range rows {
				if x == r {
					ind = append(ind, int32(r))
				}
			}
		}
		val := make([]float64, nnz)
		for k := range val {
			// Small integers make exact ties and exact cancellation
			// (the t == 0 skip) common.
			val[k] = float64(rng.Intn(7) - 3)
			if val[k] == 0 {
				val[k] = 1
			}
			if rng.Intn(4) == 0 {
				val[k] += rng.Float64()
			}
		}
		return ind, val
	}
	for i := 0; i < m; i++ {
		switch {
		case kind == "unit":
			basic = append(basic, cols.add([]int32{int32(i)}, []float64{1}))
		case kind == "dense" && rng.Intn(4) > 0:
			basic = append(basic, cols.add(sparse(m-rng.Intn(2))))
		case rng.Intn(3) == 0:
			basic = append(basic, cols.add(sparse(1+rng.Intn(min(m, 5)))))
		default:
			s := 1.0
			if rng.Intn(2) == 0 {
				s = -1 // GE surplus
			}
			basic = append(basic, cols.add([]int32{int32(i)}, []float64{s}))
		}
	}
	if kind == "singular" && m >= 2 {
		a, b := rng.Intn(m), rng.Intn(m-1)
		if b >= a {
			b++
		}
		basic[b] = basic[a]
	}
	rng.Shuffle(len(basic), func(i, j int) { basic[i], basic[j] = basic[j], basic[i] })
	return cols, basic
}

func sameEtaFile(t *testing.T, a, b []eta) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("eta file length %d, reference %d", len(a), len(b))
	}
	for k := range a {
		x, y := a[k], b[k]
		if x.pivot != y.pivot || math.Float64bits(x.pivotVal) != math.Float64bits(y.pivotVal) || len(x.ind) != len(y.ind) {
			t.Fatalf("eta %d: pivot %d/%v with %d entries, reference %d/%v with %d", k, x.pivot, x.pivotVal, len(x.ind), y.pivot, y.pivotVal, len(y.ind))
		}
		for i := range x.ind {
			if x.ind[i] != y.ind[i] || math.Float64bits(x.val[i]) != math.Float64bits(y.val[i]) {
				t.Fatalf("eta %d entry %d: (%d, %v), reference (%d, %v)", k, i, x.ind[i], x.val[i], y.ind[i], y.val[i])
			}
		}
	}
}

// TestRefactorMatchesDenseReference: over random unit, GE-slack, dense
// and singular column sets the sparse refactorization returns the dense
// reference's rowVar, eta file (bitwise) and singular verdict.
func TestRefactorMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	singular := 0
	for _, kind := range []string{"unit", "slack", "dense", "singular"} {
		for trial := 0; trial < 150; trial++ {
			m := 1 + rng.Intn(40)
			cols, basic := randomBasis(rng, m, kind)
			var got, want factorization
			// Dirty scratch: refactor must not rely on the caller's zeroing.
			work := make([]float64, m)
			for i := range work {
				work[i] = rng.Float64()
			}
			gotVar, gotOK := got.refactor(m, basic, cols.colOf, work, nil)
			wantVar, wantOK := refactorDense(&want, m, basic, cols.colOf, make([]float64, m))
			if gotOK != wantOK {
				t.Fatalf("%s m=%d trial %d: ok=%v, reference %v", kind, m, trial, gotOK, wantOK)
			}
			if !gotOK {
				singular++
				continue
			}
			for i := range wantVar {
				if gotVar[i] != wantVar[i] {
					t.Fatalf("%s m=%d trial %d: rowVar[%d]=%d, reference %d", kind, m, trial, i, gotVar[i], wantVar[i])
				}
			}
			sameEtaFile(t, got.etas, want.etas)
			// The same factorization object is reused across rebuilds.
			again, ok := got.refactor(m, basic, cols.colOf, work, nil)
			if !ok {
				t.Fatalf("%s m=%d trial %d: second refactor singular", kind, m, trial)
			}
			for i := range wantVar {
				if again[i] != wantVar[i] {
					t.Fatalf("%s m=%d trial %d: reuse changed rowVar[%d]", kind, m, trial, i)
				}
			}
			sameEtaFile(t, got.etas, want.etas)
		}
	}
	if singular < 100 {
		t.Fatalf("only %d singular verdicts exercised", singular)
	}
}

// TestRefactorRepair: in repair mode a deficient, a duplicated and an
// over-full candidate set all end as a square nonsingular basis — the
// kept columns are a subset of the candidates plus fill columns, and
// re-factorizing the result strictly succeeds with the same pivots.
func TestRefactorRepair(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		m := 2 + rng.Intn(30)
		cols, basic := randomBasis(rng, m, []string{"slack", "dense", "singular"}[trial%3])
		// One unit fill column per row, appended to the pool.
		fillCol := make([]int32, m)
		for i := range fillCol {
			s := 1.0
			if rng.Intn(2) == 0 {
				s = -1
			}
			fillCol[i] = cols.add([]int32{int32(i)}, []float64{s})
		}
		switch trial % 4 {
		case 0: // deficient: drop a few candidates
			basic = basic[:m-1-rng.Intn(min(m-1, 3))]
		case 1: // duplicate rows: every candidate listed twice
			basic = append(basic, basic...)
		case 2: // candidates that collide with fill columns
			basic = append(basic, fillCol[rng.Intn(m)], fillCol[rng.Intn(m)])
		}
		candidate := make(map[int32]bool)
		for _, j := range basic {
			candidate[j] = true
		}
		var f factorization
		work := make([]float64, m)
		rowVar, ok := f.refactor(m, basic, cols.colOf, work, func(r int32) int32 { return fillCol[r] })
		if !ok {
			t.Fatalf("trial %d: repair reported singular", trial)
		}
		seen := make(map[int32]bool)
		for r, j := range rowVar {
			if j < 0 {
				t.Fatalf("trial %d: row %d left without a column", trial, r)
			}
			if seen[j] {
				t.Fatalf("trial %d: column %d basic on two rows", trial, j)
			}
			seen[j] = true
			if !candidate[j] && j != fillCol[r] {
				t.Fatalf("trial %d: row %d took column %d, neither a candidate nor its fill", trial, r, j)
			}
		}
		var strict factorization
		again, ok := strict.refactor(m, rowVar, cols.colOf, work, nil)
		if !ok {
			t.Fatalf("trial %d: repaired basis is singular", trial)
		}
		// B·(B⁻¹ e_r) = e_r for a random row: the eta file really
		// inverts the repaired basis.
		r := rng.Intn(m)
		z := make([]float64, m)
		z[r] = 1
		strict.ftran(z)
		back := make([]float64, m)
		for row, j := range again {
			ind, val := cols.colOf(j)
			for k, i := range ind {
				back[i] += val[k] * z[row]
			}
		}
		for i, x := range back {
			want := 0.0
			if i == r {
				want = 1
			}
			if math.Abs(x-want) > 1e-6 {
				t.Fatalf("trial %d: B·B⁻¹e_%d has %v at row %d", trial, r, x, i)
			}
		}
	}
}
