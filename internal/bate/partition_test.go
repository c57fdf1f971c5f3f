package bate

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/partition"
	"bate/internal/routing"
	"bate/internal/topo"
)

// partitionTestWorkload builds count single-pair demands with modest
// bandwidths and a 0.9 target (feasible on every test topology).
func partitionTestWorkload(net *topo.Network, count int, rng *rand.Rand) []*demand.Demand {
	n := net.NumNodes()
	ds := make([]*demand.Demand, 0, count)
	for i := 0; i < count; i++ {
		src := topo.NodeID(rng.Intn(n))
		dst := topo.NodeID(rng.Intn(n))
		if src == dst {
			dst = topo.NodeID((int(dst) + 1) % n)
		}
		ds = append(ds, &demand.Demand{
			ID:     i,
			Pairs:  []demand.PairDemand{{Src: src, Dst: dst, Bandwidth: 50 + float64(rng.Intn(100))}},
			Target: 0.9,
		})
	}
	return ds
}

// checkPartitionProperties asserts the partitioned schedule's safety
// invariants against the global solve on one input: capacity is never
// violated, every demand still meets its availability target, and the
// objective stays within the configured gap of the global optimum.
func checkPartitionProperties(t *testing.T, name string, in *alloc.Input, k int) {
	t.Helper()
	gOpts := ScheduleOptions{MaxFail: 2, Engine: lp.EngineRevised}
	global, _, err := Schedule(in, gOpts)
	if err != nil {
		t.Fatalf("%s: global schedule: %v", name, err)
	}
	pOpts := gOpts
	pOpts.Partition = &partition.Options{Regions: k}
	part, stats, err := Schedule(in, pOpts)
	if err != nil {
		t.Fatalf("%s: partitioned schedule (k=%d): %v", name, k, err)
	}
	if err := part.CheckCapacity(in, 1e-6); err != nil {
		t.Fatalf("%s: partitioned (k=%d): %v", name, k, err)
	}
	if stats.Partitioned == (stats.PartitionFallback != "") {
		t.Fatalf("%s: partitioned=%v with fallback reason %q: a round that went global must say why",
			name, stats.Partitioned, stats.PartitionFallback)
	}
	for _, d := range in.Demands {
		av, err := alloc.RelaxedAvailability(in, part, d, gOpts.MaxFail)
		if err != nil {
			t.Fatalf("%s: availability of demand %d: %v", name, d.ID, err)
		}
		if av < d.Target-1e-6 {
			t.Fatalf("%s: partitioned (k=%d): demand %d availability %.6f < target %.6f (partitioned=%v)",
				name, k, d.ID, av, d.Target, stats.Partitioned)
		}
	}
	gTotal, pTotal := global.Total(), part.Total()
	// Eq. 7 minimizes total allocated bandwidth, so the stitched
	// objective can only exceed the global optimum — by at most the gap
	// threshold (fallback rounds are the global solve and match it).
	if maxTotal := gTotal*(1+partition.DefaultGapThreshold) + 1e-6; pTotal > maxTotal {
		t.Fatalf("%s: partitioned (k=%d) objective %.3f above %.3f (global %.3f, partitioned=%v, bound %.4f)",
			name, k, pTotal, maxTotal, gTotal, stats.Partitioned, stats.GapBound)
	}
}

// TestPartitionedScheduleProperties sweeps the paper topologies plus 50
// seeded random meshes.
func TestPartitionedScheduleProperties(t *testing.T) {
	for _, name := range []string{"B4", "ATT", "FITI"} {
		net, err := topo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(len(name))))
		in := &alloc.Input{
			Net:     net,
			Tunnels: routing.Compute(net, routing.KShortest, 3),
			Demands: partitionTestWorkload(net, 6, rng),
		}
		checkPartitionProperties(t, name, in, 3)
	}
	for seed := 0; seed < 50; seed++ {
		name := fmt.Sprintf("FatRandom#%d", seed)
		net := topo.FatRandom(name, 12, 3, uint64(seed)*0x9E3779B9+7)
		rng := rand.New(rand.NewSource(int64(seed)))
		in := &alloc.Input{
			Net:     net,
			Tunnels: routing.Compute(net, routing.KShortest, 3),
			Demands: partitionTestWorkload(net, 5, rng),
		}
		checkPartitionProperties(t, name, in, 3)
	}
}

// TestPartitionedScheduleK1MatchesGlobal: Regions <= 1 must take the
// exact global code path, byte-identical allocation included.
func TestPartitionedScheduleK1MatchesGlobal(t *testing.T) {
	net := topo.RingOfRegions("K1", 3, 6, 40000, 20000, 11)
	rng := rand.New(rand.NewSource(1))
	in := &alloc.Input{
		Net:     net,
		Tunnels: routing.Compute(net, routing.KShortest, 3),
		Demands: partitionTestWorkload(net, 8, rng),
	}
	gOpts := ScheduleOptions{MaxFail: 2, Engine: lp.EngineRevised}
	global, _, err := Schedule(in, gOpts)
	if err != nil {
		t.Fatal(err)
	}
	pOpts := gOpts
	pOpts.Partition = &partition.Options{Regions: 1}
	part, stats, err := Schedule(in, pOpts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partitioned {
		t.Fatalf("k=1 should not partition: stats %+v", stats)
	}
	if !reflect.DeepEqual(global, part) {
		t.Fatal("k=1 allocation differs from the global solve")
	}
}

// TestPartitionedScheduleActuallyPartitions: on a ring-of-regions graph
// with purely local demands the decomposition must engage (no silent
// always-fallback) and report its stats.
func TestPartitionedScheduleActuallyPartitions(t *testing.T) {
	net := topo.RingOfRegions("P3", 3, 6, 40000, 20000, 13)
	tunnels := routing.Compute(net, routing.KShortest, 3)
	name := func(s string) topo.NodeID {
		id, ok := net.NodeByName(s)
		if !ok {
			t.Fatalf("no node %s", s)
		}
		return id
	}
	var ds []*demand.Demand
	for r := 1; r <= 3; r++ {
		ds = append(ds, &demand.Demand{
			ID: r - 1,
			Pairs: []demand.PairDemand{{
				Src: name(fmt.Sprintf("R%dN1", r)), Dst: name(fmt.Sprintf("R%dN4", r)), Bandwidth: 200}},
			Target: 0.9,
		})
	}
	// One cross demand to exercise the coordination solve.
	ds = append(ds, &demand.Demand{
		ID:     3,
		Pairs:  []demand.PairDemand{{Src: name("R1N2"), Dst: name("R2N5"), Bandwidth: 150}},
		Target: 0.9,
	})
	in := &alloc.Input{Net: net, Tunnels: tunnels, Demands: ds}
	opts := ScheduleOptions{MaxFail: 2, Engine: lp.EngineRevised,
		Partition: &partition.Options{Regions: 3}}
	a, stats, err := Schedule(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partitioned {
		t.Fatalf("expected a partitioned round, got fallback: %+v", stats)
	}
	if stats.Regions != 3 {
		t.Fatalf("Regions = %d, want 3", stats.Regions)
	}
	if stats.CutDemands != 1 {
		t.Fatalf("CutDemands = %d, want 1", stats.CutDemands)
	}
	if err := a.CheckCapacity(in, 1e-6); err != nil {
		t.Fatal(err)
	}
	for _, d := range ds {
		av, err := alloc.RelaxedAvailability(in, a, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		if av < d.Target-1e-6 {
			t.Fatalf("demand %d availability %.6f < %.6f", d.ID, av, d.Target)
		}
	}
}
