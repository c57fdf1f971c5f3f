package lp

// Sparse column storage for the revised simplex. BATE's LPs are
// extremely sparse — an Eq. 3-4 row touches one demand's tunnels plus
// one B variable, a capacity row the flows crossing one link — so the
// constraint matrix is stored once in compressed-sparse-column (CSC)
// form and every solver pass works on column nonzeros instead of dense
// tableau rows.

// cscMatrix is a compressed-sparse-column matrix: column j's nonzeros
// are rows ind[ptr[j]:ptr[j+1]] with values val[ptr[j]:ptr[j+1]].
type cscMatrix struct {
	m, n int
	ptr  []int32
	ind  []int32
	val  []float64
}

// col returns column j's row indices and values.
func (c *cscMatrix) col(j int) ([]int32, []float64) {
	return c.ind[c.ptr[j]:c.ptr[j+1]], c.val[c.ptr[j]:c.ptr[j+1]]
}

// transpose returns the row-wise (CSR) copy: its column i is row i. A
// pattern-only matrix (nil val) gives a pattern-only copy.
func (c *cscMatrix) transpose() *cscMatrix {
	t := &cscMatrix{m: c.n, n: c.m, ptr: make([]int32, c.m+1), ind: make([]int32, len(c.ind))}
	if c.val != nil {
		t.val = make([]float64, len(c.val))
	}
	for _, i := range c.ind {
		t.ptr[i+1]++
	}
	for i := 0; i < c.m; i++ {
		t.ptr[i+1] += t.ptr[i]
	}
	next := append([]int32(nil), t.ptr[:c.m]...)
	for j := 0; j < c.n; j++ {
		for k := c.ptr[j]; k < c.ptr[j+1]; k++ {
			i := c.ind[k]
			if t.ind[next[i]] = int32(j); t.val != nil {
				t.val[next[i]] = c.val[k]
			}
			next[i]++
		}
	}
	return t
}

// buildCSC assembles the CSC matrix of the problem's structural
// columns followed by one slack/surplus column per LE/GE row (+e_i for
// LE, -e_i for GE). Duplicate variables within one constraint are
// summed, matching the dense tableau's semantics. slackCol[i] is the
// CSC column of row i's slack, or -1 for EQ rows.
func buildCSC(p *Problem) (csc *cscMatrix, slackCol []int32) {
	ns := len(p.vars)
	m := len(p.cons)

	// Count structural nonzeros per column, summing duplicates via a
	// per-row scatter into acc (touched tracks dirtied entries).
	acc := make([]float64, ns)
	touched := make([]int32, 0, 16)
	counts := make([]int32, ns)
	nSlack := 0
	for _, c := range p.cons {
		touched = touched[:0]
		for _, t := range c.Terms {
			if acc[t.Var] == 0 {
				touched = append(touched, int32(t.Var))
			}
			acc[t.Var] += t.Coef
		}
		for _, j := range touched {
			if acc[j] != 0 {
				counts[j]++
			}
			acc[j] = 0
		}
		if c.Op != EQ {
			nSlack++
		}
	}

	n := ns + nSlack
	ptr := make([]int32, n+1)
	for j := 0; j < ns; j++ {
		ptr[j+1] = ptr[j] + counts[j]
	}
	for j := ns; j < n; j++ {
		ptr[j+1] = ptr[j] + 1 // unit slack columns
	}
	nnz := ptr[n]
	ind := make([]int32, nnz)
	val := make([]float64, nnz)

	// Fill structural columns row by row; next[j] is the write cursor.
	next := make([]int32, ns)
	copy(next, ptr[:ns])
	for i, c := range p.cons {
		touched = touched[:0]
		for _, t := range c.Terms {
			if acc[t.Var] == 0 {
				touched = append(touched, int32(t.Var))
			}
			acc[t.Var] += t.Coef
		}
		for _, j := range touched {
			if acc[j] != 0 {
				ind[next[j]] = int32(i)
				val[next[j]] = acc[j]
				next[j]++
			}
			acc[j] = 0
		}
	}
	// Slack columns in row order.
	slackCol = make([]int32, m)
	sc := int32(ns)
	for i, c := range p.cons {
		switch c.Op {
		case LE:
			ind[ptr[sc]] = int32(i)
			val[ptr[sc]] = 1
			slackCol[i] = sc
			sc++
		case GE:
			ind[ptr[sc]] = int32(i)
			val[ptr[sc]] = -1
			slackCol[i] = sc
			sc++
		default:
			slackCol[i] = -1
		}
	}
	return &cscMatrix{m: m, n: n, ptr: ptr, ind: ind, val: val}, slackCol
}
