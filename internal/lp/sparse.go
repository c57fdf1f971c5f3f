package lp

// Sparse column storage for the revised simplex. BATE's LPs are
// extremely sparse — an Eq. 3-4 row touches one demand's tunnels plus
// one B variable, a capacity row the flows crossing one link — so the
// constraint matrix is stored once in compressed-sparse-column (CSC)
// form and every solver pass works on column nonzeros instead of dense
// tableau rows.

import "sync"

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

// transposeInto writes the row-wise (CSR) copy of c into t, whose
// arrays it reuses: t's column i is row i. A pattern-only matrix (nil
// val) gives a pattern-only copy.
func (c *cscMatrix) transposeInto(t *cscMatrix) {
	t.m, t.n = c.n, c.m
	t.ptr = resize(t.ptr, c.m+1)
	clear(t.ptr)
	t.ind = resize(t.ind, len(c.ind))
	t.val = t.val[:0]
	if c.val != nil {
		t.val = resize(t.val, len(c.val))
	}
	for _, i := range c.ind {
		t.ptr[i+1]++
	}
	for i := 0; i < c.m; i++ {
		t.ptr[i+1] += t.ptr[i]
	}
	// t.ptr[i] is row i's write cursor; once every entry is placed it
	// is the row's end, the next row's start, so the shift restores it.
	for j := 0; j < c.n; j++ {
		for k := c.ptr[j]; k < c.ptr[j+1]; k++ {
			i := c.ind[k]
			if t.ind[t.ptr[i]] = int32(j); c.val != nil {
				t.val[t.ptr[i]] = c.val[k]
			}
			t.ptr[i]++
		}
	}
	copy(t.ptr[1:], t.ptr[:c.m])
	t.ptr[0] = 0
}

// build assembles into mx the CSC matrix of p's structural columns
// followed by one slack/surplus column per LE/GE row (+e_i for LE, -e_i
// for GE), reusing the arrays of the matrix mx held before. Duplicate
// variables within one constraint are summed, matching the dense
// tableau's semantics. slackCol[i] is the CSC column of row i's slack,
// or -1 for EQ rows. The row-wise copy is left to rows.
func (mx *matrix) build(p *Problem) {
	if mx.csr != nil {
		mx.oldCSR, mx.csr = mx.csr, nil
	}
	mx.csrOnce = sync.Once{}
	ns := len(p.vars)
	m := len(p.cons)

	// Count structural nonzeros per column into ptr, summing duplicates
	// via a per-row scatter into acc (touched tracks dirtied entries;
	// acc is all zero between builds).
	c := mx.csc
	mx.acc = resize(mx.acc, ns)
	acc := mx.acc
	touched := mx.touched[:0]
	nSlack := 0
	for _, con := range p.cons {
		if con.Op != EQ {
			nSlack++
		}
	}
	n := ns + nSlack
	c.m, c.n = m, n
	c.ptr = resize(c.ptr, n+1)
	clear(c.ptr)
	ptr := c.ptr
	for _, con := range p.cons {
		touched = touched[:0]
		for _, t := range con.Terms {
			if acc[t.Var] == 0 {
				touched = append(touched, int32(t.Var))
			}
			acc[t.Var] += t.Coef
		}
		for _, j := range touched {
			if acc[j] != 0 {
				ptr[j+1]++
			}
			acc[j] = 0
		}
	}
	for j := 0; j < ns; j++ {
		ptr[j+1] += ptr[j]
	}
	for j := ns; j < n; j++ {
		ptr[j+1] = ptr[j] + 1 // unit slack columns
	}
	nnz := ptr[n]
	c.ind = resize(c.ind, int(nnz))
	c.val = resize(c.val, int(nnz))
	ind, val := c.ind, c.val

	// Fill structural columns row by row; next[j] is the write cursor.
	mx.next = resize(mx.next, ns)
	next := mx.next
	copy(next, ptr[:ns])
	for i, con := range p.cons {
		touched = touched[:0]
		for _, t := range con.Terms {
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
	mx.touched = touched
	// Slack columns in row order.
	mx.slackCol = resize(mx.slackCol, m)
	sc := int32(ns)
	for i, con := range p.cons {
		switch con.Op {
		case LE:
			ind[ptr[sc]] = int32(i)
			val[ptr[sc]] = 1
			mx.slackCol[i] = sc
			sc++
		case GE:
			ind[ptr[sc]] = int32(i)
			val[ptr[sc]] = -1
			mx.slackCol[i] = sc
			sc++
		default:
			mx.slackCol[i] = -1
		}
	}
}

// resize returns s with length n, on s's array when it is large enough
// and otherwise on a new one — with an eighth to spare when s had one,
// so that a problem rebuilt a little larger round after round does not
// reallocate every round. It does not clear what s held.
func resize[T any](s []T, n int) []T {
	switch {
	case cap(s) >= n:
		return s[:n]
	case cap(s) == 0:
		return make([]T, n)
	}
	return make([]T, n, n+n/8)
}

// zeroed is resize with every element cleared, as make would leave it.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return resize(s, n) // new, so zero
	}
	s = s[:n]
	clear(s)
	return s
}
