package bate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/partition"
	"bate/internal/routing"
	"bate/internal/topo"
)

// greedyBook draws count demands over net: ~90% inside one of regions
// (1 = anywhere), a fifth of them over two pairs, bandwidths in
// [50, 200)·scale. ties charges every demand its bandwidth, so the
// whole book has profit density 1 and the order falls to the ID
// tie-break; otherwise the price per Mbps is random.
func greedyBook(net *topo.Network, regions, count int, scale float64, ties bool, rng *rand.Rand) []*demand.Demand {
	part := partition.New(net, regions, nil)
	byRegion := make([][]topo.NodeID, part.Regions)
	for v := 0; v < net.NumNodes(); v++ {
		byRegion[part.NodeRegion[v]] = append(byRegion[part.NodeRegion[v]], topo.NodeID(v))
	}
	pair := func() demand.PairDemand {
		r := rng.Intn(part.Regions)
		src := byRegion[r][rng.Intn(len(byRegion[r]))]
		if rng.Intn(10) == 0 {
			r = (r + 1) % part.Regions
		}
		dst := src
		for dst == src {
			dst = byRegion[r][rng.Intn(len(byRegion[r]))]
		}
		return demand.PairDemand{Src: src, Dst: dst, Bandwidth: (50 + 150*rng.Float64()) * scale}
	}
	ds := make([]*demand.Demand, count)
	for i := range ds {
		d := &demand.Demand{ID: i, Pairs: []demand.PairDemand{pair()}, Target: 0.9, RefundFrac: 0.25}
		if rng.Intn(5) == 0 {
			d.Pairs = append(d.Pairs, pair())
		}
		d.Charge = d.TotalBandwidth()
		if !ties {
			d.Charge *= 0.5 + 1.5*rng.Float64()
		}
		ds[i] = d
	}
	return ds
}

func greedyInput(net *topo.Network, k int, ds []*demand.Demand) *alloc.Input {
	seen := make(map[[2]topo.NodeID]bool)
	var pairs [][2]topo.NodeID
	for _, d := range ds {
		for _, p := range d.Pairs {
			if key := [2]topo.NodeID{p.Src, p.Dst}; !seen[key] {
				seen[key] = true
				pairs = append(pairs, key)
			}
		}
	}
	return &alloc.Input{Net: net, Tunnels: routing.ComputeForPairs(net, routing.KShortest, k, pairs), Demands: ds}
}

// swapBook is a book whose no-failure run takes Algorithm 2's line 11:
// cheap-to-serve small demands come first and fill DC1's links, then
// one demand worth more than all of them no longer fits beside them.
func swapBook(t *testing.T, in *alloc.Input) []*demand.Demand {
	var ds []*demand.Demand
	for i := 0; i < 5; i++ {
		d := testbedDemand(t, in, i, "DC1", []string{"DC2", "DC4", "DC6"}[i%3], 300, 0.9)
		d.Charge = 2 * 300
		ds = append(ds, d)
	}
	big := testbedDemand(t, in, 5, "DC1", "DC3", 1800, 0.9)
	big.Charge = 1.9 * 1800
	return append(ds, big)
}

// sameRecovery reports whether two results agree in every bit but the
// wall-clock Elapsed.
func sameRecovery(a, b *RecoveryResult) bool {
	return reflect.DeepEqual(a.Alloc, b.Alloc) && reflect.DeepEqual(a.FullProfit, b.FullProfit) && a.Profit == b.Profit
}

// Every precomputed backup, and RecoverGreedy itself, must equal the
// frozen from-scratch reference in every bit — and the cases must reach
// the reuse, early-stop and swap paths, or equality proves nothing.
func TestBackupsMatchReferenceGreedy(t *testing.T) {
	type tcase struct {
		name  string
		in    *alloc.Input
		depth int
	}
	var cases []tcase
	add := func(name string, net *topo.Network, regions, k, count, depth int, scale float64) {
		for _, ties := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(len(cases)) + 7))
			in := greedyInput(net, k, greedyBook(net, regions, count, scale, ties, rng))
			name := fmt.Sprintf("%s/ties=%v", name, ties)
			cases = append(cases, tcase{name, in, depth})
			// Drain two links the book uses.
			drained := *in
			for len(drained.Drained) < 2 {
				d := in.Demands[rng.Intn(len(in.Demands))]
				drained.Drained = append(drained.Drained, in.TunnelsFor(d, 0)[0].Links[0])
			}
			cases = append(cases, tcase{name + "/drained", &drained, depth})
		}
	}
	add("testbed/slack/depth1", topo.Testbed(), 1, 4, 12, 1, 0.3)
	add("testbed/slack/depth2", topo.Testbed(), 1, 4, 12, 2, 0.3)
	add("testbed/binding/depth2", topo.Testbed(), 1, 4, 30, 2, 1.5)
	add("b4/slack", topo.B4(), 1, 4, 60, 1, 0.2)
	add("b4/binding", topo.B4(), 1, 4, 200, 1, 4)
	add("synth100/slack", topo.Synth100(), 10, 3, 20, 1, 1)
	add("synth100/binding", topo.Synth100(), 10, 3, 20, 1, 300)
	wide := greedyBook(topo.Synth100(), 10, 150, 1, true, rand.New(rand.NewSource(1)))
	cases = append(cases, tcase{"synth100/book150", greedyInput(topo.Synth100(), 3, wide), 1})
	swapIn := testbedInput(t, nil)
	swapIn.Demands = swapBook(t, swapIn)
	cases = append(cases, tcase{"testbed/swap/depth2", swapIn, 2})

	var allStopEarly, swapped bool
	for _, tc := range cases {
		in := tc.in
		bs, err := PrecomputeBackups(in, tc.depth, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		head := newGreedyWalk(in).order[0].ID
		stops, swaps := 0, 0
		var walk func(start int, cur []topo.LinkID)
		walk = func(start int, cur []topo.LinkID) {
			if len(cur) > 0 {
				want, _ := refRecoverGreedy(in, cur)
				got, ok := bs.For(cur)
				if !ok {
					t.Fatalf("%s: no backup for %v", tc.name, cur)
				}
				if !sameRecovery(got, want) {
					t.Fatalf("%s: backup for %v differs from the reference greedy", tc.name, cur)
				}
				if len(cur) == 1 {
					if one, _ := RecoverGreedy(in, cur); !sameRecovery(one, want) {
						t.Fatalf("%s: RecoverGreedy(%v) differs from the reference greedy", tc.name, cur)
					}
				}
				if len(want.FullProfit) < len(in.Demands) {
					stops++
				}
				if len(want.FullProfit) == 1 && !want.FullProfit[head] {
					swaps++
				}
			}
			if len(cur) == tc.depth {
				return
			}
			for e := start; e < in.Net.NumLinks(); e++ {
				walk(e+1, append(cur, topo.LinkID(e)))
			}
		}
		walk(0, nil)
		fits := bs.FitsSolved + bs.FitsReused
		t.Logf("%-40s %4d combos, %3d stop early, %3d swap, %6d fits solved, %6d reused", tc.name, bs.Len(), stops, swaps, bs.FitsSolved, bs.FitsReused)
		allStopEarly = allStopEarly || stops == bs.Len()
		swapped = swapped || swaps > 0
		if tc.name == "synth100/book150" && bs.FitsSolved*10 > fits {
			t.Errorf("%s: %d of %d fits solved, want at most a tenth", tc.name, bs.FitsSolved, fits)
		}
	}
	if !allStopEarly {
		t.Error("no case has every combination stop at an unfittable demand")
	}
	if !swapped {
		t.Error("no case takes the line-11 swap")
	}
}
