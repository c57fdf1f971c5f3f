package bate

import (
	"fmt"
	"math"
	"sort"
	"time"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/routing"
	"bate/internal/topo"
)

// RecoveryResult is the outcome of a failure-recovery computation for
// one failure scenario.
type RecoveryResult struct {
	// Alloc is the rerouted allocation over surviving tunnels. Its rows
	// may be shared with other results (see BackupSet): never write them.
	Alloc alloc.Allocation
	// FullProfit lists the demand IDs that keep their full profit
	// (every pair fully served; the set F of Algorithm 2).
	FullProfit map[int]bool
	// Profit is Σ r_d under the §3.4 refund model.
	Profit  float64
	Elapsed time.Duration
	// Nodes/Iterations record MILP effort (optimal only).
	Nodes, Iterations int
}

// profitOf computes Σ r_d given which demands are fully served.
func profitOf(demands []*demand.Demand, full map[int]bool) float64 {
	sum := 0.0
	for _, d := range demands {
		if full[d.ID] {
			sum += d.Charge
		} else {
			sum += (1 - d.RefundFrac) * d.Charge
		}
	}
	return sum
}

// downSet returns a lookup for failed links.
func downSet(failed []topo.LinkID) map[topo.LinkID]bool {
	m := make(map[topo.LinkID]bool, len(failed))
	for _, e := range failed {
		m[e] = true
	}
	return m
}

// tunnelUsable returns a predicate for tunnels that avoid every failed
// link (v^z_t).
func tunnelUsable(failed map[topo.LinkID]bool) func(routing.Tunnel) bool {
	return func(t routing.Tunnel) bool {
		for _, e := range t.Links {
			if failed[e] {
				return false
			}
		}
		return true
	}
}

// RecoverOptimal solves the failure-recovery MILP of Eq. 12: maximize
// total profit after refunding, rerouting traffic onto surviving
// tunnels under the failed-scenario capacities (Eq. 11).
func RecoverOptimal(in *alloc.Input, failed []topo.LinkID) (*RecoveryResult, error) {
	return RecoverOptimalOpts(in, failed, lp.Options{})
}

// RecoverOptimalOpts is RecoverOptimal with explicit solver options:
// lp.EngineRevised makes every branch-and-bound node warm-start from
// its parent's basis (ColdStart disables that, for ablation).
func RecoverOptimalOpts(in *alloc.Input, failed []topo.LinkID, opts lp.Options) (*RecoveryResult, error) {
	start := time.Now()
	down := downSet(failed)
	usable := tunnelUsable(down)

	p := lp.NewProblem()
	p.SetMaximize()
	caps := alloc.FullCapacities(in)
	for _, e := range failed {
		caps[e] = 0
	}
	fv := alloc.AddFlowVars(p, in, caps, usable)
	yv := make(map[int]lp.VarID, len(in.Demands))
	for _, d := range in.Demands {
		// y_d = 1 ⇔ no violation; profit g((1-μ) + μ·y). The constant
		// part is added after solving.
		y := p.AddBinary(fmt.Sprintf("y[d%d]", d.ID), d.Charge*d.RefundFrac)
		yv[d.ID] = y
		for pi, pr := range d.Pairs {
			if pr.Bandwidth <= 0 {
				continue
			}
			tunnels := in.TunnelsFor(d, pi)
			terms := make([]lp.Term, 0, len(tunnels)+1)
			for ti, t := range tunnels {
				if usable(t) {
					terms = append(terms, lp.Term{Var: fv[d.ID][pi][ti], Coef: 1})
				}
			}
			// R_dk ≥ y_d (Eq. 9, lower side; maximization never wants
			// y=1 without full delivery, so the big-M upper side is
			// unnecessary).
			terms = append(terms, lp.Term{Var: y, Coef: -pr.Bandwidth})
			p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: 0})
		}
	}
	sol, err := p.SolveOpts(opts)
	switch {
	case err == nil:
	case sol != nil && sol.Status == lp.IterLimit && len(sol.Values()) > 0:
		// Node budget exhausted: keep the best incumbent found so
		// far, the same best-effort degradation optimal admission
		// uses under its MaxNodes cap.
	default:
		return nil, fmt.Errorf("bate: optimal recovery: %w", err)
	}
	res := &RecoveryResult{
		Alloc:      fv.Extract(sol),
		FullProfit: make(map[int]bool),
		Elapsed:    time.Since(start),
		Nodes:      sol.Nodes,
		Iterations: sol.Iterations,
	}
	for _, d := range in.Demands {
		if sol.Value(yv[d.ID]) > 0.5 {
			res.FullProfit[d.ID] = true
		}
	}
	res.Profit = profitOf(in.Demands, res.FullProfit)
	return res, nil
}

// RecoverGreedy implements Algorithm 2, the 2-approximation greedy for
// the failure-recovery MILP: demands are considered in non-increasing
// profit density g_d / Σ_k b^k_d; each is fully packed if the
// scenario's remaining capacity allows; on the first unfittable demand
// the algorithm either swaps the whole accepted set for that single
// demand (if it alone is worth more and fits in the fresh scenario
// capacity) or stops (Lemma 2: max{Σ g_i, g_{n+1}} ≥ OPT/2).
func RecoverGreedy(in *alloc.Input, failed []topo.LinkID) (*RecoveryResult, error) {
	w := newGreedyWalk(in)
	res, _ := w.run(failed)
	backupFitsSolved.Add(int64(w.solved))
	return res, nil
}

// greedyWalk is Algorithm 2 over one book: what every failure set
// shares (the greedy order, each position's tunnels, the full
// capacities) and, once PrecomputeBackups has recorded it, the
// no-failure run that a failure's run is propagated from.
type greedyWalk struct {
	in      *alloc.Input
	order   []*demand.Demand
	tunnels [][][]routing.Tunnel // per position, per pair
	zero    [][][]float64        // per position: all-zero rows, shared by every result
	caps    []float64
	base    [][][]float64 // per position: the rows the no-failure run fitted, nil from its stop on
	solved  int           // one-demand LPs solved,
	reused  int           // and fits taken from base instead
}

func newGreedyWalk(in *alloc.Input) *greedyWalk {
	order := append([]*demand.Demand(nil), in.Demands...)
	sort.Slice(order, func(i, j int) bool {
		di := order[i].Charge / nonzero(order[i].TotalBandwidth())
		dj := order[j].Charge / nonzero(order[j].TotalBandwidth())
		if di != dj {
			return di > dj
		}
		return order[i].ID < order[j].ID
	})
	w := &greedyWalk{in: in, order: order, caps: alloc.FullCapacities(in), base: make([][][]float64, len(order))}
	for _, d := range order {
		ts, zero := make([][]routing.Tunnel, len(d.Pairs)), make([][]float64, len(d.Pairs))
		for pi := range d.Pairs {
			ts[pi] = in.TunnelsFor(d, pi)
			zero[pi] = make([]float64, len(ts[pi]))
		}
		w.tunnels, w.zero = append(w.tunnels, ts), append(w.zero, zero)
	}
	return w
}

// scenarioCaps returns the full capacities with the failed links at 0.
func (w *greedyWalk) scenarioCaps(failed []topo.LinkID) []float64 {
	caps := append([]float64(nil), w.caps...)
	for _, e := range failed {
		caps[e] = 0
	}
	return caps
}

// run walks the order under one failure set and also returns the rows
// fitted per position up to the first unfittable demand. A fit is a
// pure function of the demand, which of its tunnels are usable and
// capRem on their links, and a link not marked dirty has received the
// same subtractions in the same order as in the base run; so a demand
// none of whose links is dirty takes its base rows unsolved, and the
// result is bit for bit what re-solving every demand returns (with no
// base, every demand is). A link turns dirty when it fails or when a
// tunnel over it is fitted with a rate other than the base one.
func (w *greedyWalk) run(failed []topo.LinkID) (*RecoveryResult, [][][]float64) {
	start := time.Now()
	usable := tunnelUsable(downSet(failed))
	capRem := w.scenarioCaps(failed)
	dirty := make([]bool, len(capRem))
	for _, e := range failed {
		dirty[e] = true
	}
	fitted := make([][][]float64, 0, len(w.order))
	var swap [][]float64
	var acceptedCharge float64

	for i, d := range w.order {
		base := w.base[i]
		rows, ok := base, base != nil && !anyDirty(dirty, w.tunnels[i])
		if ok {
			w.reused++
		} else {
			rows, ok = fitDemand(capRem, d, w.tunnels[i], usable)
			w.solved++
		}
		if !ok {
			// Line 11: the unfittable demand may alone be worth more
			// than everything accepted so far.
			if acceptedCharge < d.Charge {
				swap, _ = fitDemand(w.scenarioCaps(failed), d, w.tunnels[i], usable)
				w.solved++
			}
			break // Algorithm 2 stops at the first unfittable demand.
		}
		fitted = append(fitted, rows)
		acceptedCharge += d.Charge
		settle(capRem, dirty, w.tunnels[i], rows, base)
	}

	// The demands keeping their full profit sit at positions
	// [lo, lo+len(kept)): everything fitted, or the swapped-in demand.
	lo, kept := 0, fitted
	if swap != nil {
		lo, kept = len(fitted), [][][]float64{swap}
	}
	res := &RecoveryResult{Alloc: make(alloc.Allocation, len(w.order)), FullProfit: make(map[int]bool, len(kept))}
	for i, d := range w.order {
		if j := i - lo; j >= 0 && j < len(kept) {
			res.Alloc[d.ID] = kept[j]
			res.FullProfit[d.ID] = true
		} else {
			res.Alloc[d.ID] = w.zero[i]
		}
	}
	res.Profit = profitOf(w.in.Demands, res.FullProfit)
	res.Elapsed = time.Since(start)
	return res, fitted
}

// anyDirty reports whether any tunnel, usable or not, crosses a dirty link.
func anyDirty(dirty []bool, tunnels [][]routing.Tunnel) bool {
	for _, ts := range tunnels {
		for _, t := range ts {
			for _, e := range t.Links {
				if dirty[e] {
					return true
				}
			}
		}
	}
	return false
}

// settle subtracts a fitted demand's rows from the remaining capacities
// and dirties the links of every tunnel whose rate is not the base run's.
func settle(capRem []float64, dirty []bool, tunnels [][]routing.Tunnel, rows, base [][]float64) {
	for pi, ts := range tunnels {
		for ti, f := range rows[pi] {
			moved := base != nil && f != base[pi][ti]
			for _, e := range ts[ti].Links {
				if f > 0 {
					capRem[e] -= f
				}
				if moved {
					dirty[e] = true
				}
			}
		}
	}
}

func nonzero(x float64) float64 {
	if x <= 0 {
		return 1e-12
	}
	return x
}

// fitDemand tries to pack the full demand into the remaining
// capacities over surviving tunnels, exactly (a tiny LP per demand,
// since a demand's tunnels may share links). It returns the per-pair
// per-tunnel allocation on success. The LP is the one alloc.AddFlowVars
// builds for a one-demand input — variables in (pair, tunnel) order, a
// capacity row per link of a usable tunnel by ascending link id, terms
// in variable order, then the demand rows — built from d's own tunnels.
func fitDemand(capRem []float64, d *demand.Demand, tunnels [][]routing.Tunnel, usable func(routing.Tunnel) bool) ([][]float64, bool) {
	p := lp.NewProblem()
	type use struct {
		link topo.LinkID
		v    lp.VarID
	}
	var uses []use // sorted by link, then by variable
	for _, ts := range tunnels {
		for _, t := range ts {
			upper, links := math.Inf(1), t.Links
			if !usable(t) {
				upper, links = 0, nil // carries nothing, so loads no link
			}
			v := p.AddVariable("", 0, upper, 1) // cost 1: cheapest exact fit
			for _, e := range links {
				uses = append(uses, use{e, v})
				for j := len(uses) - 1; j > 0 && uses[j-1].link > e; j-- {
					uses[j], uses[j-1] = uses[j-1], uses[j]
				}
			}
		}
	}
	var terms []lp.Term
	for i, u := range uses {
		terms = append(terms, lp.Term{Var: u.v, Coef: 1})
		if i+1 == len(uses) || uses[i+1].link != u.link {
			p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.LE, RHS: capRem[u.link]})
			terms = nil
		}
	}
	v := lp.VarID(0)
	for pi, pr := range d.Pairs {
		terms := make([]lp.Term, len(tunnels[pi]))
		for ti := range terms {
			terms[ti] = lp.Term{Var: v, Coef: 1}
			v++
		}
		if pr.Bandwidth > 0 {
			p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.EQ, RHS: pr.Bandwidth})
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, false
	}
	rows := make([][]float64, len(tunnels))
	v = 0
	for pi, ts := range tunnels {
		rows[pi] = make([]float64, len(ts))
		for ti := range ts {
			// Sub-epsilon noise is dropped, as alloc.FlowVars.Extract does.
			if x := sol.Value(v); x > 1e-7 {
				rows[pi][ti] = x
			}
			v++
		}
	}
	return rows, true
}
