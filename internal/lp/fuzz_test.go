package lp

import (
	"math"
	"testing"
)

// fuzzLP decodes a small bounded LP from data: up to 6 boxed variables
// and 6 rows of every operator, with small integer-valued coefficients
// and bounds so that ties and degenerate vertices are common. Every
// variable has a finite upper bound, so the LP is never unbounded.
func fuzzLP(data []byte) *Problem {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	p := NewProblem()
	head := next()
	if head&1 == 1 {
		p.SetMaximize()
	}
	n, m := 1+head>>1%6, 1+next()%6
	for j := 0; j < n; j++ {
		p.AddVariable("x", 0, float64(1+next()%8)/2, float64(next()%17-8)/2)
	}
	for i := 0; i < m; i++ {
		var terms []Term
		for j := 0; j < n; j++ {
			if c := next()%9 - 4; c != 0 {
				terms = append(terms, Term{Var: VarID(j), Coef: float64(c)})
			}
		}
		if len(terms) == 0 {
			terms = append(terms, Term{Var: VarID(i % n), Coef: 1})
		}
		p.AddConstraint(Constraint{Terms: terms, Op: Op(next() % 3), RHS: float64(next()%25-8) / 2})
	}
	return p
}

// FuzzRevisedVsDense solves each decoded LP on the dense tableau and on
// the revised simplex: the verdicts must match and, at an optimum, the
// objectives agree to 1e-6 relative.
func FuzzRevisedVsDense(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{11, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{10, 5, 7, 16, 7, 0, 7, 8, 8, 8, 8, 8, 0, 24, 4, 4, 4, 4, 1, 0, 0, 4, 0, 0, 2, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := fuzzLP(data)
		ds, _ := p.solveLPDense(nil, nil, Auto)
		rs, _ := p.solveLPRevised(nil, nil, Options{})
		if ds.Status == IterLimit || rs.Status == IterLimit {
			return
		}
		if ds.Status != rs.Status {
			t.Fatalf("status dense=%v revised=%v", ds.Status, rs.Status)
		}
		if ds.Status == Optimal && math.Abs(ds.Objective-rs.Objective) > 1e-6*(1+math.Abs(ds.Objective)) {
			t.Fatalf("objective dense=%.12g revised=%.12g", ds.Objective, rs.Objective)
		}
	})
}
