package bate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/topo"
)

// rootCase is one book the planned-root tests run on, with the books a
// plan goes stale against.
type rootCase struct {
	name    string
	in      *alloc.Input
	churned *alloc.Input // in after 8 withdraws and 8 admits
	drained *alloc.Input // in with one link the book uses drained
	other   *alloc.Input // another book on the same network
	// failures holds no failure, every single failure of a link the
	// book's tunnels cross (any other leaves in's LP as with no
	// failure) and 20 seeded double failures, the doubles last.
	failures [][]topo.LinkID
}

// sampled reports whether the tests that skip some failures to stay
// fast run failure i: every double one and every fourth of the rest.
func (tc *rootCase) sampled(i int) bool {
	return i%4 == 0 || len(tc.failures[i]) > 1
}

func rootCases() []rootCase {
	mk := func(name string, net *topo.Network, regions, k, count int, scale float64) rootCase {
		rng := rand.New(rand.NewSource(3))
		book := greedyBook(net, regions, count, scale, true, rng)
		extra := greedyBook(net, regions, 8, scale, true, rng)
		for i, d := range extra {
			d.ID = count + i
		}
		other := greedyBook(net, regions, count, scale, true, rng)
		all := greedyInput(net, k, append(append(append([]*demand.Demand(nil), book...), extra...), other...))
		c := rootCase{
			name:    name,
			in:      all.WithDemands(book),
			churned: all.WithDemands(append(append([]*demand.Demand(nil), book[8:]...), extra...)),
			other:   all.WithDemands(other),
		}
		c.drained = all.WithDemands(book)
		c.drained.Drained = []topo.LinkID{c.in.TunnelsFor(book[0], 0)[0].Links[0]}
		crossed := make(map[topo.LinkID]bool)
		for _, d := range book {
			for pi := range d.Pairs {
				for _, t := range all.TunnelsFor(d, pi) {
					for _, e := range t.Links {
						crossed[e] = true
					}
				}
			}
		}
		c.failures = append(c.failures, nil)
		for e := 0; e < net.NumLinks(); e++ {
			if crossed[topo.LinkID(e)] {
				c.failures = append(c.failures, []topo.LinkID{topo.LinkID(e)})
			}
		}
		for i := 0; i < 20; i++ {
			a := topo.LinkID(rng.Intn(net.NumLinks()))
			b := topo.LinkID(rng.Intn(net.NumLinks() - 1))
			if b >= a {
				b++
			}
			c.failures = append(c.failures, []topo.LinkID{a, b})
		}
		return c
	}
	return []rootCase{
		mk("testbed/book40", topo.Testbed(), 1, 4, 40, 0.2),
		mk("b4/book200", topo.B4(), 1, 4, 200, 1),
		mk("synth100/book30", topo.Synth100(), 10, 3, 30, 1),
	}
}

// The optimal rung started from a planned root — fresh, or stale by
// book churn, a drain or a whole other book — must reach the optimum a
// cold RecoverOptimal reaches: a fresh plan for every failure of
// rootCase, a stale one for the sampled failures. On B4's book of 200
// the fresh plan must cut the rung's pivots to a quarter of its cold
// solve's.
func TestPlannedRootMatchesColdRecovery(t *testing.T) {
	for _, tc := range rootCases() {
		planned := &BackupSet{}
		if _, _, err := planned.PlanRoot(tc.in, nil); err != nil {
			t.Fatal(err)
		}
		plans := []struct {
			name string
			in   *alloc.Input // the book failures hit
		}{
			{"fresh", tc.in},
			{"stale/churned", tc.churned},
			{"stale/drained", tc.drained},
			{"stale/other-book", tc.other},
		}
		for _, pl := range plans {
			coldPivots, warmPivots, notWarm := 0, 0, 0
			var coldTime, warmTime time.Duration
			n := 0
			for i, down := range tc.failures {
				if pl.name != "fresh" && !tc.sampled(i) {
					continue
				}
				n++
				want, err := RecoverOptimal(pl.in, down)
				if err != nil {
					t.Fatalf("%s/%s %v: cold: %v", tc.name, pl.name, down, err)
				}
				start := time.Now()
				got, err := RecoverOptimalOpts(pl.in, down, lp.Options{Warm: planned.Root})
				warmTime += time.Since(start)
				if err != nil {
					t.Fatalf("%s/%s %v: warm: %v", tc.name, pl.name, down, err)
				}
				if d := math.Abs(got.Profit - want.Profit); d > 1e-6*math.Max(1, math.Abs(want.Profit)) {
					t.Errorf("%s/%s %v: profit %.9g from the plan, %.9g cold", tc.name, pl.name, down, got.Profit, want.Profit)
				}
				if !got.WarmRoot {
					notWarm++
				}
				warmPivots += got.Iterations
				if pl.name == "fresh" {
					// The rung as it ran without a plan.
					start := time.Now()
					cold, err := RecoverOptimalOpts(pl.in, down, lp.Options{})
					coldTime += time.Since(start)
					if err != nil {
						t.Fatal(err)
					}
					coldPivots += cold.Iterations
				}
			}
			if pl.name == "fresh" {
				t.Logf("%-16s %-17s %3d failures: %6d pivots cold (%v each), %5d planned (%v each)",
					tc.name, pl.name, n, coldPivots, coldTime/time.Duration(n), warmPivots, warmTime/time.Duration(n))
				if notWarm > 0 {
					t.Errorf("%s: %d of %d failures did not start from the fresh plan", tc.name, notWarm, n)
				}
				if tc.name == "b4/book200" && 4*warmPivots > coldPivots {
					t.Errorf("%s: %d pivots from the plan, want at most a quarter of the cold %d", tc.name, warmPivots, coldPivots)
				}
			} else {
				t.Logf("%-16s %-17s %3d failures: %5d planned pivots, %d not warm", tc.name, pl.name, n, warmPivots, notWarm)
			}
		}
	}
}

// Naming the LP's rows changes nothing a cold solve does: without a
// plan, RecoverOptimalOpts gives the frozen builder's result bit for
// bit.
func TestColdRecoveryMatchesFrozenBuilder(t *testing.T) {
	for _, tc := range rootCases() {
		for _, down := range tc.failures {
			got, err := RecoverOptimalOpts(tc.in, down, lp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := refRecoverOptimal(tc.in, down, lp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameRecovery(got, want) || got.Nodes != want.Nodes || got.Iterations != want.Iterations {
				t.Fatalf("%s %v: result differs from the frozen builder's", tc.name, down)
			}
		}
	}
}

// refRecoverOptimal is RecoverOptimalOpts as it was before the rows
// were named and the builder was shared with PlanRoot, frozen.
func refRecoverOptimal(in *alloc.Input, failed []topo.LinkID, opts lp.Options) (*RecoveryResult, error) {
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
			terms = append(terms, lp.Term{Var: y, Coef: -pr.Bandwidth})
			p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: 0})
		}
	}
	sol, err := p.SolveOpts(opts)
	switch {
	case err == nil:
	case sol != nil && sol.Status == lp.IterLimit && len(sol.Values()) > 0:
	default:
		return nil, fmt.Errorf("bate: optimal recovery: %w", err)
	}
	res := &RecoveryResult{
		Alloc:      fv.Extract(sol),
		FullProfit: make(map[int]bool),
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
