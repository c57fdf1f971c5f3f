package lp

import (
	"math"
	"slices"
)

// Basis factorization for the revised simplex: the basis inverse is
// held in product form (PFI) as a sequence of eta matrices. Each pivot
// appends one eta; FTRAN applies the file forward, BTRAN applies the
// transposes in reverse. The file is rebuilt (refactorized) from the
// current basic columns once it grows past refactorEvery etas, which
// both bounds FTRAN/BTRAN cost and flushes accumulated roundoff.

// refactorEvery bounds the eta file's length past a refactorization
// of m rows before the next rebuild.
func refactorEvery(m int) int { return min(max(m/4, 32), 120) }

// etaDropTol discards eta entries below this magnitude.
const etaDropTol = 1e-12

// singularTol is the minimum acceptable pivot magnitude during
// refactorization; below it the candidate basis is declared singular.
const singularTol = 1e-8

// eta is one product-form update: an identity matrix whose column
// `pivot` is replaced by the vector with pivotVal at the pivot row and
// val[k] at row ind[k] elsewhere.
type eta struct {
	pivot    int32
	pivotVal float64
	ind      []int32
	val      []float64
}

// factorization is the eta-file representation of B⁻¹, plus the
// scratch refactor reuses across rebuilds. The eta file's slots keep
// their index and value arrays when the file is emptied, and the next
// eta in a slot writes into them.
type factorization struct {
	m    int
	etas []eta

	etaOfRow []int32 // refactor eta pivoting on each row, -1 for none
	rowUsed  []bool
	inWork   []bool  // row is listed in touched
	touched  []int32 // rows of work that may be nonzero
	heap     []int32 // pending eta indices of the refactor FTRAN and btranUnit

	// The first nRefactor etas are the last refactor's; column i of
	// etasOf lists those that include row i (built on first use, into
	// etasOfBuf from etaRows, the etas' row sets).
	nRefactor          int
	etasOf             *cscMatrix
	etaRows, etasOfBuf cscMatrix

	rowVars    [2][]int32 // refactor's results, alternately
	nnz, byNNZ []int32    // sortByNNZ's scratch
	order      []int32
}

// reset empties the eta file.
func (f *factorization) reset(m int) {
	f.m = m
	f.etas = f.etas[:0]
	f.nRefactor, f.etasOf = 0, nil
}

// indexRefactorEtas transposes the refactor etas' row sets into etasOf.
func (f *factorization) indexRefactorEtas() {
	c := &f.etaRows
	c.m, c.n = f.m, f.nRefactor
	c.ptr, c.ind = append(c.ptr[:0], 0), c.ind[:0]
	for _, e := range f.etas[:f.nRefactor] {
		c.ind = append(append(c.ind, e.pivot), e.ind...)
		c.ptr = append(c.ptr, int32(len(c.ind)))
	}
	c.transposeInto(&f.etasOfBuf)
	f.etasOf = &f.etasOfBuf
}

// ftran solves B z = a in place: v holds a on entry, B⁻¹a on exit.
func (f *factorization) ftran(v []float64) { f.ftranFrom(0, v) }

// ftranFrom applies the etas from k on to v, oldest first.
func (f *factorization) ftranFrom(k int, v []float64) {
	for ; k < len(f.etas); k++ {
		e := &f.etas[k]
		t := v[e.pivot]
		if t == 0 {
			continue
		}
		v[e.pivot] = t * e.pivotVal
		for i, r := range e.ind {
			v[r] += t * e.val[i]
		}
	}
}

// heapBudget is the density switch of ftranSparse and btranUnit: once
// more etas than this are queued, the vector is going dense and the
// full walk over the rest of the file is cheaper than the heap.
func (f *factorization) heapBudget() int { return len(f.etas) / 8 }

// ftranSparse is ftran for the column (ind, val) scattered into v, which
// is zero on entry, returning the ascending rows that may be nonzero.
// It applies only the refactor etas a live row reaches, in file order
// via a min-heap as pivotColumn does, then the etas pushed since the
// refactorization — or, returning nil, every eta left once the heap
// outgrows heapBudget. A skipped eta would see a zero at its pivot row,
// which ftran skips too, so v ends bit for bit as ftran leaves it.
func (f *factorization) ftranSparse(ind []int32, val []float64, v []float64) []int32 {
	f.scatter(ind, val, v)
	next := f.ftranQueued(v, f.heapBudget())
	if next < 0 {
		for k := f.nRefactor; k < len(f.etas); k++ {
			f.ftranEta(int32(k), v)
		}
	}
	for _, r := range f.touched {
		f.inWork[r] = false
	}
	if next >= 0 {
		f.ftranFrom(int(next), v)
		return nil
	}
	slices.Sort(f.touched)
	return f.touched
}

// scatter writes the column (ind, val) into work, zero on its rows,
// lists those rows in touched and queues the refactor etas pivoting on
// them.
func (f *factorization) scatter(ind []int32, val []float64, work []float64) {
	f.touched, f.heap = f.touched[:0], f.heap[:0]
	for k, r := range ind {
		work[r] = val[k]
		f.inWork[r] = true
		f.touched = append(f.touched, r)
		if e := f.etaOfRow[r]; e >= 0 {
			f.heapPush(e)
		}
	}
}

// ftranQueued applies the queued refactor etas to work in file order.
// It stops while more than maxQueue are pending and returns the first
// of them, or -1 once the queue runs dry.
func (f *factorization) ftranQueued(work []float64, maxQueue int) int32 {
	for len(f.heap) > 0 {
		if len(f.heap) > maxQueue {
			return f.heap[0]
		}
		f.ftranEta(f.heapPop(), work)
	}
	return -1
}

// ftranEta applies eta k to work as ftran does. A row it reaches for
// the first time is listed in touched, and the refactor eta pivoting
// on it is queued when it comes after k: an eta before k saw a zero
// there when its turn came.
func (f *factorization) ftranEta(k int32, work []float64) {
	e := &f.etas[k]
	t := work[e.pivot]
	if t == 0 {
		return
	}
	work[e.pivot] = t * e.pivotVal
	for i, r := range e.ind {
		work[r] += t * e.val[i]
		if !f.inWork[r] {
			f.inWork[r] = true
			f.touched = append(f.touched, r)
			if q := f.etaOfRow[r]; q > k {
				f.heapPush(q)
			}
		}
	}
}

// btran solves Bᵀ y = c in place: v holds c on entry, B⁻ᵀc on exit.
func (f *factorization) btran(v []float64) { f.btranBelow(len(f.etas), v) }

// btranBelow applies the etas before k to v, newest first.
func (f *factorization) btranBelow(k int, v []float64) {
	for k--; k >= 0; k-- {
		e := &f.etas[k]
		v[e.pivot] = e.dotT(v)
	}
}

// dotT is the value the transpose of e writes at its pivot row.
func (e *eta) dotT(v []float64) float64 {
	s := e.pivotVal * v[e.pivot]
	for i, r := range e.ind {
		s += e.val[i] * v[r]
	}
	return s
}

// btranUnit is btran for v = e_r (v zero on entry), returning the rows
// that may be nonzero. After the etas pushed since the refactorization
// it applies only the refactor etas a live row reaches, newest first via
// a max-heap — or, returning nil, every eta left once the heap outgrows
// heapBudget. A skipped eta would write a zero, so v ends bit for bit as
// btran leaves it (up to the sign of a zero).
func (f *factorization) btranUnit(r int32, v []float64) []int32 {
	if f.etasOf == nil {
		f.indexRefactorEtas()
	}
	f.touched, f.heap = f.touched[:0], f.heap[:0]
	maxQueue := f.heapBudget()
	v[r] = 1
	f.markLive(r, int32(f.nRefactor))
	next := len(f.etas) // the etas before next are still to apply
	for next > f.nRefactor && len(f.heap) <= maxQueue {
		next--
		f.btranEta(next, v)
	}
	for len(f.heap) > 0 && len(f.heap) <= maxQueue {
		// Complemented keys make the min-heap a max-heap; an eta
		// reached from two rows pops twice in a row.
		if k := int(^f.heapPop()); k < next {
			next = k
			f.btranEta(k, v)
		}
	}
	for _, i := range f.touched {
		f.inWork[i] = false
	}
	if len(f.heap) == 0 && next <= f.nRefactor {
		return f.touched
	}
	f.btranBelow(next, v)
	return nil
}

// btranEta applies eta k to v as btran does and marks its row live.
func (f *factorization) btranEta(k int, v []float64) {
	e := &f.etas[k]
	if v[e.pivot] = e.dotT(v); v[e.pivot] != 0 {
		f.markLive(e.pivot, int32(min(k, f.nRefactor)))
	}
}

// markLive lists row r in touched, once, and queues the refactor etas
// before `below` that include it.
func (f *factorization) markLive(r, below int32) {
	if f.inWork[r] {
		return
	}
	f.inWork[r] = true
	f.touched = append(f.touched, r)
	for _, k := range f.etasOf.ind[f.etasOf.ptr[r]:f.etasOf.ptr[r+1]] {
		if k >= below {
			return
		}
		f.heapPush(^k)
	}
}

// push appends the eta for a pivot on row r of the FTRAN'd entering
// column w (w = B⁻¹ a_enter), reading the ascending rows where w may be
// nonzero.
func (f *factorization) push(w []float64, r int32, rows []int32) {
	e := f.nextEta(r, 1/w[r], 0)
	for _, i := range rows {
		e.add(i, w[i])
	}
}

// nextEta appends an eta pivoting on row r to the file and returns it,
// empty, on the index and value arrays its slot held before, grown to
// hold n entries.
func (f *factorization) nextEta(r int32, pivotVal float64, n int) *eta {
	if len(f.etas) < cap(f.etas) {
		f.etas = f.etas[:len(f.etas)+1]
	} else {
		f.etas = append(f.etas, eta{})
	}
	e := &f.etas[len(f.etas)-1]
	e.pivot, e.pivotVal = r, pivotVal
	e.ind, e.val = slices.Grow(e.ind[:0], n), slices.Grow(e.val[:0], n)
	return e
}

// add records off-pivot entry x of the pivoted column at row i,
// dropping zeros and roundoff dust.
func (e *eta) add(i int32, x float64) {
	if i == e.pivot || x == 0 || (x < etaDropTol && x > -etaDropTol) {
		return
	}
	e.ind = append(e.ind, i)
	e.val = append(e.val, -x*e.pivotVal)
}

// refactor rebuilds the eta file from the basic column set. basic
// lists the candidate columns (any order); colOf materializes a
// column's nonzeros; work is scratch of length m. It returns the row
// each column pivoted on (rowVar[row] = column).
//
// With fill == nil, basic must hold exactly one column per row and a
// column that finds no pivot makes the basis singular: refactor
// returns false with the factorization left unusable. With fill set
// (repair mode) basic may be any column set: a column that finds no
// pivot is left out of rowVar, and every row still unpivoted at the
// end takes the column fill(row), which must be that row's unit
// (slack or artificial) column, so the result is always square and
// nonsingular.
//
// The work per column is proportional to the nonzeros it touches, not
// to m: the column is scattered with a list of the rows it reaches,
// the FTRAN visits only etas whose pivot row is live (every refactor
// eta pivots on a row of its own, so they are indexed by row and
// drained in file order through a min-heap as fill-in reaches them),
// and the pivot search, the eta and the clean-up walk that list. The
// arithmetic is the dense sweep's, operation for operation: columns in
// stable nnz order, etas in file order, the largest |a| with the
// lowest row on ties, eta entries in ascending row order.
func (f *factorization) refactor(m int, basic []int32, colOf func(j int32) ([]int32, []float64), work []float64, fill func(row int32) int32) ([]int32, bool) {
	f.reset(m)
	factorizations.Inc()
	// At most one eta per row, then refactorEvery(m) pushed ones. The
	// slots carry their arrays over to a larger file.
	if n := m + refactorEvery(m); cap(f.etas) < n {
		f.etas = append(resize(f.etas[:0], n)[:0], f.etas[:cap(f.etas)]...)[:0]
	}
	f.etaOfRow, f.rowUsed, f.inWork = resize(f.etaOfRow, m), resize(f.rowUsed, m), resize(f.inWork, m)
	rowVar := f.rowVarFor(m, basic)
	for i := 0; i < m; i++ {
		f.etaOfRow[i], f.rowUsed[i], f.inWork[i] = -1, false, false
		rowVar[i] = -1
		work[i] = 0
	}
	// Sparsest columns first: unit slack/artificial columns pivot
	// trivially and keep the etas of later, denser columns short.
	for _, j := range f.sortByNNZ(basic, colOf) {
		row := f.pivotColumn(j, colOf, work)
		if row >= 0 {
			rowVar[row] = j
		} else if fill == nil {
			return nil, false
		}
	}
	if fill != nil {
		for r := int32(0); int(r) < m; r++ {
			if f.rowUsed[r] {
				continue
			}
			j := fill(r)
			if f.pivotColumn(j, colOf, work) != r {
				return nil, false
			}
			rowVar[r] = j
		}
	}
	f.nRefactor = len(f.etas)
	return rowVar, true
}

// rowVarFor returns a length-m array for refactor's rowVar, one of two
// it alternates between: not basic's, which refactor still reads after
// it starts writing rowVar. So the rowVar of the refactor before stays
// the caller's until the one after.
func (f *factorization) rowVarFor(m int, basic []int32) []int32 {
	k := 0
	if b := f.rowVars[0]; len(basic) > 0 && cap(b) > 0 && &b[:1][0] == &basic[0] {
		k = 1
	}
	f.rowVars[k] = resize(f.rowVars[k], m)
	return f.rowVars[k]
}

// sortByNNZ returns cols stably ordered by nonzero count (a counting
// sort: the counts are at most m), in scratch valid until the next call.
func (f *factorization) sortByNNZ(cols []int32, colOf func(j int32) ([]int32, []float64)) []int32 {
	f.nnz = resize(f.nnz, len(cols))
	nnz := f.nnz
	maxN := int32(0)
	for i, j := range cols {
		ind, _ := colOf(j)
		nnz[i] = int32(len(ind))
		if nnz[i] > maxN {
			maxN = nnz[i]
		}
	}
	f.byNNZ = resize(f.byNNZ, int(maxN)+2)
	next := f.byNNZ
	clear(next)
	for _, n := range nnz {
		next[n+1]++
	}
	for n := int32(1); n <= maxN; n++ {
		next[n] += next[n-1]
	}
	f.order = resize(f.order, len(cols))
	order := f.order
	for i, j := range cols {
		order[next[nnz[i]]] = j
		next[nnz[i]]++
	}
	return order
}

// pivotColumn FTRANs column j through the refactor etas built so far,
// pivots it on the largest-magnitude entry in an unused row and
// appends its eta. It returns the pivot row, or -1 when no unused row
// carries an entry above singularTol. work is all zero on entry and on
// exit.
func (f *factorization) pivotColumn(j int32, colOf func(j int32) ([]int32, []float64), work []float64) int32 {
	ind, val := colOf(j)
	f.scatter(ind, val, work)
	f.ftranQueued(work, len(f.etas)) // the heap never outgrows the file
	best, bestAbs := int32(-1), singularTol
	nonzero := 0
	for _, r := range f.touched {
		a := work[r]
		if a != 0 {
			nonzero++
		}
		if f.rowUsed[r] {
			continue
		}
		if a < 0 {
			a = -a
		}
		if a > bestAbs || (a == bestAbs && best >= 0 && r < best) {
			bestAbs, best = a, r
		}
	}
	if best >= 0 {
		// Identity columns (slack already pivoting its own untouched
		// row with coefficient 1) need no eta.
		if !(work[best] == 1 && nonzero == 1) {
			slices.Sort(f.touched)
			f.etaOfRow[best] = int32(len(f.etas))
			e := f.nextEta(best, 1/work[best], len(f.touched)-1)
			for _, r := range f.touched {
				e.add(r, work[r])
			}
		}
		f.rowUsed[best] = true
	}
	for _, r := range f.touched {
		work[r] = 0
		f.inWork[r] = false
	}
	return best
}

// heapPush and heapPop keep f.heap a binary min-heap of eta indices.
func (f *factorization) heapPush(k int32) {
	h := append(f.heap, k)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	f.heap = h
}

func (f *factorization) heapPop() int32 {
	h := f.heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && h[c+1] < h[c] {
			c++
		}
		if h[i] <= h[c] {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	f.heap = h
	return top
}

// Basis is an opaque snapshot of an optimal revised-simplex basis,
// reusable to warm-start a later solve. Obtain one from Solution.Basis
// after a revised-engine solve and pass it back via Options.Warm. It
// records every column's and row's name next to its status, so it
// seeds not only a re-solve of the same problem (branch & bound
// children, an unchanged book) but any problem that shares names with
// it: see remap. The seeded statuses are a hint, never a certificate —
// the warm solve repairs whatever it is given into an optimal basis of
// the problem at hand, so a name that has come to mean something else
// (a reused demand id) costs pivots, not correctness.
type Basis struct {
	ns, m    int
	ops      []Op
	colNames []string // per structural column
	rowNames []string
	status   []int8  // per structural+slack column
	rowVar   []int32 // basic column per row (may include artificials)
	artSign  []int8  // per-row artificial column sign
}

// matches reports whether the snapshot fits problem p position for
// position: same shape, same operators, same names.
func (b *Basis) matches(p *Problem) bool {
	if b.ns != len(p.vars) || b.m != len(p.cons) {
		return false
	}
	for i, c := range p.cons {
		if b.ops[i] != c.Op || b.rowNames[i] != c.Name {
			return false
		}
	}
	for j, v := range p.vars {
		if b.colNames[j] != v.name {
			return false
		}
	}
	return true
}

// remap carries the snapshot onto a problem it does not match, by
// name, writing a status for every structural and slack column of r.
// A column whose name the snapshot knows keeps its status; a new boxed
// column with negative cost starts at its upper bound, any other new
// column at its lower. A row the snapshot knows under the same
// operator keeps its slack's status; a new row gets its slack basic.
// Unnamed columns and rows are new. What was basic on a column or row
// that is gone is simply missing from the result, which is therefore
// not a basis yet: the repairing refactorization makes it one.
func (b *Basis) remap(r *revised) {
	if r.oldCol == nil {
		r.oldCol, r.oldRow = make(map[string]int32, b.ns), make(map[string]int32, b.m)
	}
	oldCol, oldRow := r.oldCol, r.oldRow
	clear(oldCol)
	clear(oldRow)
	for j, name := range b.colNames {
		if name != "" {
			oldCol[name] = int32(j)
		}
	}
	for j, v := range r.p.vars {
		if old, ok := oldCol[v.name]; ok {
			r.status[j] = b.status[old]
		} else if r.cost[j] < 0 && !math.IsInf(r.hi[j], 1) {
			r.status[j] = atUpper
		} else {
			r.status[j] = atLower
		}
	}
	r.oldSlack = resize(r.oldSlack, b.m)
	oldSlack := r.oldSlack
	next := int32(b.ns)
	for i, name := range b.rowNames {
		oldSlack[i] = -1
		if b.ops[i] != EQ {
			oldSlack[i] = next
			next++
		}
		if name != "" {
			oldRow[name] = int32(i)
		}
	}
	for i, c := range r.p.cons {
		sc := r.slackCol[i]
		if sc < 0 {
			continue
		}
		if old, ok := oldRow[c.Name]; ok && b.ops[old] == c.Op {
			r.status[sc] = b.status[oldSlack[old]]
		} else {
			r.status[sc] = isBasic
		}
	}
}
