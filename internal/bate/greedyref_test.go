package bate

import (
	"sort"
	"time"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/routing"
	"bate/internal/topo"
)

// The frozen reference for Algorithm 2: RecoverGreedy and fitDemand
// exactly as they stood before backups became change-propagating (only
// the names differ) — every demand re-solved from scratch for every
// failure set, the one-demand LP built by alloc.AddFlowVars. Every
// output of the production walk must equal this one bit for bit.

// refRecoverGreedy implements Algorithm 2, the 2-approximation greedy for
// the failure-recovery MILP: demands are considered in non-increasing
// profit density g_d / Σ_k b^k_d; each is fully packed if the
// scenario's remaining capacity allows; on the first unfittable demand
// the algorithm either swaps the whole accepted set for that single
// demand (if it alone is worth more and fits in the fresh scenario
// capacity) or stops (Lemma 2: max{Σ g_i, g_{n+1}} ≥ OPT/2).
func refRecoverGreedy(in *alloc.Input, failed []topo.LinkID) (*RecoveryResult, error) {
	start := time.Now()
	down := downSet(failed)
	usable := tunnelUsable(down)

	order := append([]*demand.Demand(nil), in.Demands...)
	sort.Slice(order, func(i, j int) bool {
		di := order[i].Charge / nonzero(order[i].TotalBandwidth())
		dj := order[j].Charge / nonzero(order[j].TotalBandwidth())
		if di != dj {
			return di > dj
		}
		return order[i].ID < order[j].ID
	})

	capRem := alloc.FullCapacities(in)
	for _, e := range failed {
		capRem[e] = 0
	}
	res := &RecoveryResult{Alloc: alloc.New(in), FullProfit: make(map[int]bool)}
	var acceptedCharge float64

	for _, d := range order {
		rows, ok := refFitDemand(in, capRem, d, usable)
		if ok {
			res.Alloc[d.ID] = rows
			res.FullProfit[d.ID] = true
			acceptedCharge += d.Charge
			refConsume(in, capRem, d, rows)
			continue
		}
		// Line 11: the unfittable demand may alone be worth more than
		// everything accepted so far.
		if acceptedCharge < d.Charge {
			fresh := alloc.FullCapacities(in)
			for _, e := range failed {
				fresh[e] = 0
			}
			if rows, ok := refFitDemand(in, fresh, d, usable); ok {
				res.Alloc = alloc.New(in)
				res.FullProfit = map[int]bool{d.ID: true}
				res.Alloc[d.ID] = rows
			}
		}
		break // Algorithm 2 stops at the first unfittable demand.
	}
	res.Profit = profitOf(in.Demands, res.FullProfit)
	res.Elapsed = time.Since(start)
	return res, nil
}

// refFitDemand tries to pack the full demand into the remaining
// capacities over surviving tunnels, exactly (a tiny LP per demand,
// since a demand's tunnels may share links). It returns the per-pair
// per-tunnel allocation on success.
func refFitDemand(in *alloc.Input, capRem []float64, d *demand.Demand, usable func(routing.Tunnel) bool) ([][]float64, bool) {
	one := &alloc.Input{Net: in.Net, Tunnels: in.Tunnels, Demands: []*demand.Demand{d}}
	p := lp.NewProblem()
	fv := alloc.AddFlowVars(p, one, capRem, usable)
	for _, rows := range fv {
		for _, r := range rows {
			for _, v := range r {
				p.SetCost(v, 1) // cheapest exact fit
			}
		}
	}
	for pi, pr := range d.Pairs {
		if pr.Bandwidth <= 0 {
			continue
		}
		terms := make([]lp.Term, 0, len(fv[d.ID][pi]))
		for _, v := range fv[d.ID][pi] {
			terms = append(terms, lp.Term{Var: v, Coef: 1})
		}
		p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.EQ, RHS: pr.Bandwidth})
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, false
	}
	return fv.Extract(sol)[d.ID], true
}

// refConsume subtracts an allocation from the remaining capacities.
func refConsume(in *alloc.Input, capRem []float64, d *demand.Demand, rows [][]float64) {
	for pi := range d.Pairs {
		tunnels := in.TunnelsFor(d, pi)
		for ti, f := range rows[pi] {
			if f <= 0 {
				continue
			}
			for _, e := range tunnels[ti].Links {
				capRem[e] -= f
			}
		}
	}
}
