package experiments

import (
	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/partition"
	"bate/internal/routing"
	"bate/internal/topo"
)

// PartitionCase is one synthetic topology with its region count and
// workload size for partitioned-scheduling measurements.
type PartitionCase struct {
	Build   func() *topo.Network
	Regions int
	Demands int
}

// PartitionWorkload builds the deterministic locality-biased demand
// set of the partitioned-scheduling workloads: ~90% of demands stay inside one region
// (inter-DC traffic is overwhelmingly intra-continental), the rest
// cross to the ring neighbor. Bandwidths and targets cycle through
// small deterministic menus.
func PartitionWorkload(net *topo.Network, part *partition.Partition, count int, seed uint64) []*demand.Demand {
	byRegion := make([][]topo.NodeID, part.Regions)
	for v := 0; v < net.NumNodes(); v++ {
		r := part.NodeRegion[v]
		byRegion[r] = append(byRegion[r], topo.NodeID(v))
	}
	x := seed | 1
	next := func() uint64 { // xorshift64
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Modest targets: the qualified scenario mass P(<= 2 failures) on
	// the 1000-node graph is ~0.994, so 0.99 is the highest target that
	// stays feasible at every scale.
	targets := []float64{0.9, 0.95, 0.99}
	ds := make([]*demand.Demand, 0, count)
	for i := 0; i < count; i++ {
		r := i % part.Regions
		nodes := byRegion[r]
		src := nodes[int(next()%uint64(len(nodes)))]
		var dst topo.NodeID
		if next()%10 == 0 && part.Regions > 1 {
			// Cross-region: destination in the next region.
			peer := byRegion[(r+1)%part.Regions]
			dst = peer[int(next()%uint64(len(peer)))]
		} else {
			for {
				dst = nodes[int(next()%uint64(len(nodes)))]
				if dst != src {
					break
				}
			}
		}
		if dst == src { // single-node region edge case
			continue
		}
		bw := 50 + float64(next()%150)
		ds = append(ds, &demand.Demand{
			ID:     i,
			Pairs:  []demand.PairDemand{{Src: src, Dst: dst, Bandwidth: bw}},
			Target: targets[i%len(targets)],
		})
	}
	return ds
}

// PartitionInput builds the case's full scheduling input: the
// locality-biased workload plus 3-shortest tunnels for exactly the
// workload's pairs (the scenario model caps relevant links per demand,
// so wider tunnel fans are off the table at this scale, and all-pairs
// routing on 1000 nodes would dwarf the measurement).
func PartitionInput(c PartitionCase, seed int64) *alloc.Input {
	net := c.Build()
	part := partition.New(net, c.Regions, nil)
	ds := PartitionWorkload(net, part, c.Demands, uint64(seed)*0x9E3779B9+1)
	var pairs [][2]topo.NodeID
	for _, d := range ds {
		for _, p := range d.Pairs {
			pairs = append(pairs, [2]topo.NodeID{p.Src, p.Dst})
		}
	}
	tunnels := routing.ComputeForPairs(net, routing.KShortest, 3, pairs)
	return &alloc.Input{Net: net, Tunnels: tunnels, Demands: ds}
}
