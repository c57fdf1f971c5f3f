package alloc

import (
	"math"
	"strconv"

	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/routing"
	"bate/internal/scenario"
)

// FlowVars holds the LP variables f^t_d for every (demand, pair,
// tunnel) triple, in the same shape as Allocation.
type FlowVars map[int][][]lp.VarID

// AppendName appends the LP name prefix[t0v0,t1v1,...] to buf, one tag
// letter per value: AppendName(b, "f", "dpt", 3, 0, 1) appends
// "f[d3,p0,t1]", byte for byte what fmt.Sprintf("f[d%d,p%d,t%d]", 3, 0,
// 1) gives. Keyed warm starts match columns and rows by these names.
func AppendName(buf []byte, prefix, tags string, vals ...int) []byte {
	buf = append(buf, prefix...)
	for i, v := range vals {
		if i == 0 {
			buf = append(buf, '[')
		} else {
			buf = append(buf, ',')
		}
		buf = append(buf, tags[i])
		buf = strconv.AppendInt(buf, int64(v), 10)
	}
	return append(buf, ']')
}

// AddFlowVars adds one nonnegative variable f[d,p,t] per (demand, pair,
// tunnel) to p and the per-link capacity constraints cap[e] (Eq. 6)
// using the given per-link capacities; links carrying no tunnel have
// no capacity row. Tunnels for which usable returns false get a fixed
// zero upper bound (used by failure recovery, where tunnels through
// failed links carry nothing). usable may be nil.
func AddFlowVars(p *lp.Problem, in *Input, caps []float64, usable func(routing.Tunnel) bool) FlowVars {
	fv := make(FlowVars, len(in.Demands))
	linkTerms := make([][]lp.Term, in.Net.NumLinks())
	var name [32]byte
	for _, d := range in.Demands {
		rows := make([][]lp.VarID, len(d.Pairs))
		for pi := range d.Pairs {
			tunnels := in.TunnelsFor(d, pi)
			rows[pi] = make([]lp.VarID, len(tunnels))
			for ti, t := range tunnels {
				upper := math.Inf(1)
				if usable != nil && !usable(t) {
					upper = 0
				}
				v := p.AddVariable(string(AppendName(name[:0], "f", "dpt", d.ID, pi, ti)), 0, upper, 0)
				rows[pi][ti] = v
				if upper > 0 {
					for _, e := range t.Links {
						linkTerms[e] = append(linkTerms[e], lp.Term{Var: v, Coef: 1})
					}
				}
			}
		}
		fv[d.ID] = rows
	}
	for _, l := range in.Net.Links() {
		if len(linkTerms[l.ID]) == 0 {
			continue
		}
		p.AddConstraint(lp.Constraint{
			Name:  string(AppendName(name[:0], "cap", "e", int(l.ID))),
			Terms: linkTerms[l.ID],
			Op:    lp.LE,
			RHS:   caps[l.ID],
		})
	}
	return fv
}

// ClassTerms appends to dst the LP terms Σ_t f^t_d of pair pi of d over
// the tunnels up in class cls, in tunnel order: the pair's delivered
// bandwidth in that class. With dst nil the slice is fresh, with room
// for one more term (the caller's B, q or grant variable).
func (fv FlowVars) ClassTerms(dst []lp.Term, in *Input, d *demand.Demand, pi int, cls scenario.Class) []lp.Term {
	bit := pairBit(in, d, pi)
	vars := fv[d.ID][pi]
	terms := dst
	if terms == nil {
		terms = make([]lp.Term, 0, len(vars)+1)
	}
	for ti, v := range vars {
		if cls.TunnelUp(bit + ti) {
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
	}
	return terms
}

// FullCapacities returns the link capacities of the input's network,
// with links under a maintenance drain (Input.Drained) reported as
// zero so every capacity-aware consumer routes around them.
func FullCapacities(in *Input) []float64 {
	caps := make([]float64, in.Net.NumLinks())
	for _, l := range in.Net.Links() {
		caps[l.ID] = l.Capacity
	}
	for _, e := range in.Drained {
		if int(e) >= 0 && int(e) < len(caps) {
			caps[e] = 0
		}
	}
	return caps
}

// Extract reads the solved values of the flow variables into an
// Allocation, dropping sub-epsilon noise.
func (fv FlowVars) Extract(sol *lp.Solution) Allocation {
	a := make(Allocation, len(fv))
	for id, rows := range fv {
		nr := make([][]float64, len(rows))
		for pi, r := range rows {
			nr[pi] = make([]float64, len(r))
			for ti, v := range r {
				x := sol.Value(v)
				if x > 1e-7 {
					nr[pi][ti] = x
				}
			}
		}
		a[id] = nr
	}
	return a
}
