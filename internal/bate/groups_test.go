package bate

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/partition"
	"bate/internal/routing"
	"bate/internal/scenario"
	"bate/internal/topo"
)

// The failure model is one value on alloc.Input: these tests check that
// every consumer — admission, scheduling, hardening, partitioned
// sub-inputs, the optimal-admission MILP — sees the same groups and
// drains.

// randomGroups draws 1–3 shared-risk groups of 2–3 links each, taken
// from the links the input's tunnels ride, each failing with a
// log-uniform probability in [1e-4, 2e-2].
func randomGroups(rng *rand.Rand, in *alloc.Input) []scenario.RiskGroup {
	seen := map[topo.LinkID]bool{}
	var used []topo.LinkID
	for _, pr := range in.Net.Pairs() {
		for _, tun := range in.Tunnels.For(pr[0], pr[1]) {
			for _, e := range tun.Links {
				if !seen[e] {
					seen[e] = true
					used = append(used, e)
				}
			}
		}
	}
	sort.Slice(used, func(i, j int) bool { return used[i] < used[j] })
	groups := make([]scenario.RiskGroup, 1+rng.Intn(3))
	for i := range groups {
		var links []topo.LinkID
		for _, j := range rng.Perm(len(used))[:2+rng.Intn(2)] {
			links = append(links, used[j])
		}
		groups[i] = scenario.RiskGroup{
			Name:  fmt.Sprintf("g%d", i),
			Links: links,
			Prob:  1e-4 * math.Pow(200, rng.Float64()),
		}
	}
	return groups
}

// TestAdmittedHardenableUnderGroups is the no-false-positive property
// of §3.2 under a declared correlated failure model: every demand that
// Admit accepts, against a hardened schedule of the book so far, leaves
// a book that ScheduleHard can harden under the same groups. Demands
// are sized so links bind and the Alg. 1 conjecture step runs.
func TestAdmittedHardenableUnderGroups(t *testing.T) {
	const maxFail = 2
	targets := []float64{0.9, 0.95, 0.99, 0.999}
	methods := map[AdmissionMethod]int{}
	for _, name := range []string{"Toy4", "Testbed6"} {
		net, err := topo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		capacity := net.Link(0).Capacity
		tunnels := routing.Compute(net, routing.KShortest, 4)
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			in := &alloc.Input{Net: net, Tunnels: tunnels}
			in.Groups = randomGroups(rng, in)
			pairs := net.Pairs()
			current := alloc.Allocation{}
			var book []*demand.Demand
			for id := 0; id < 10; id++ {
				pr := pairs[rng.Intn(len(pairs))]
				d := &demand.Demand{
					ID:     id,
					Pairs:  []demand.PairDemand{{Src: pr[0], Dst: pr[1], Bandwidth: capacity * (0.1 + 0.5*rng.Float64())}},
					Target: targets[rng.Intn(len(targets))],
				}
				res, err := Admit(in.WithDemands(book), current, book, d, maxFail)
				if err != nil {
					t.Fatal(err)
				}
				methods[res.Method]++
				if !res.Admitted {
					continue
				}
				next := append(append([]*demand.Demand(nil), book...), d)
				hardIn := in.WithDemands(next)
				a, err := ScheduleHard(hardIn, ScheduleOptions{MaxFail: maxFail})
				if err != nil {
					t.Fatalf("%s seed %d: demand %d (%.0f Mbps @ %v) admitted by %s, but the book does not harden under groups %v: %v",
						name, seed, d.ID, d.Pairs[0].Bandwidth, d.Target, res.Method, in.Groups, err)
				}
				for _, bd := range next {
					ok, err := alloc.Satisfies(hardIn, a, bd, maxFail)
					if err != nil || !ok {
						av, _ := alloc.AchievedAvailability(hardIn, a, bd, maxFail)
						t.Fatalf("%s seed %d: demand %d achieves %.6f < %v under groups after hardening (err %v)",
							name, seed, bd.ID, av, bd.Target, err)
					}
				}
				book, current = next, a
			}
		}
	}
	t.Logf("admission outcomes: %v", methods)
	if methods[MethodFixed] == 0 || methods[MethodConjecture]+methods[MethodRejected] == 0 {
		t.Fatalf("workload never reached the conjecture step: %v", methods)
	}
}

// TestAdmitOptimalAvoidsDrainedLink: the Appendix A MILP must see a
// drained link at zero capacity, exactly as the §3.2 admission does.
func TestAdmitOptimalAvoidsDrainedLink(t *testing.T) {
	in := testbedInput(t, nil)
	dc1, _ := in.Net.NodeByName("DC1")
	dc4, _ := in.Net.NodeByName("DC4")
	drained := topo.LinkID(-1)
	for _, l := range in.Net.Links() {
		if l.Src == dc1 && l.Dst == dc4 {
			drained = l.ID
		}
	}
	in.Drained = []topo.LinkID{drained}
	d := testbedDemand(t, in, 0, "DC1", "DC4", 2500, 0.9)

	res, a, err := AdmitOptimal(in, nil, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		if load := a.LinkLoads(in.WithDemands([]*demand.Demand{d}))[drained]; load > 1e-6 {
			t.Fatalf("optimal admission put %.1f Mbps on drained link %d", load, drained)
		}
	}
	ref, err := Admit(in, alloc.Allocation{}, nil, d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted != ref.Admitted {
		t.Fatalf("optimal admission admitted=%v, §3.2 admission admitted=%v on the same drained input",
			res.Admitted, ref.Admitted)
	}
}

// TestPartitionedScheduleHonoursGroups: a partitioned round plans every
// region under the input's risk groups. Each region demand's shortest
// tunnel sits in a conduit group that fails more often than its target
// allows, so a region LP that lost the groups would leave it on that
// tunnel alone and miss the grouped target.
func TestPartitionedScheduleHonoursGroups(t *testing.T) {
	net := topo.RingOfRegions("G3", 3, 6, 40000, 20000, 13)
	tunnels := routing.Compute(net, routing.KShortest, 3)
	node := func(s string) topo.NodeID {
		id, ok := net.NodeByName(s)
		if !ok {
			t.Fatalf("no node %s", s)
		}
		return id
	}
	in := &alloc.Input{Net: net, Tunnels: tunnels}
	for r := 1; r <= 3; r++ {
		src, dst := node(fmt.Sprintf("R%dN1", r)), node(fmt.Sprintf("R%dN4", r))
		in.Demands = append(in.Demands, &demand.Demand{
			ID:     r - 1,
			Pairs:  []demand.PairDemand{{Src: src, Dst: dst, Bandwidth: 200}},
			Target: 0.99,
		})
		in.Groups = append(in.Groups, scenario.RiskGroup{
			Name:  fmt.Sprintf("conduit-R%d", r),
			Links: tunnels.For(src, dst)[0].Links,
			Prob:  0.02,
		})
	}
	in.Demands = append(in.Demands, &demand.Demand{
		ID:     3,
		Pairs:  []demand.PairDemand{{Src: node("R1N2"), Dst: node("R2N5"), Bandwidth: 150}},
		Target: 0.9,
	})

	gOpts := ScheduleOptions{MaxFail: 2}
	global, _, err := Schedule(in, gOpts)
	if err != nil {
		t.Fatal(err)
	}
	pOpts := gOpts
	pOpts.Partition = &partition.Options{Regions: 3}
	part, stats, err := Schedule(in, pOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partitioned {
		t.Fatalf("expected a partitioned round, got fallback %q", stats.PartitionFallback)
	}
	if err := part.CheckCapacity(in, 1e-6); err != nil {
		t.Fatal(err)
	}
	for _, d := range in.Demands {
		av, err := alloc.RelaxedAvailability(in, part, d, gOpts.MaxFail)
		if err != nil {
			t.Fatal(err)
		}
		if av < d.Target-1e-6 {
			t.Fatalf("demand %d grouped availability %.6f < target %v", d.ID, av, d.Target)
		}
	}
	gTotal, pTotal := global.Total(), part.Total()
	if maxTotal := gTotal*(1+stats.GapBound) + 1e-6; pTotal > maxTotal {
		t.Fatalf("partitioned objective %.3f above %.3f (global %.3f, gap bound %.4f)",
			pTotal, maxTotal, gTotal, stats.GapBound)
	}
}
