package main

import (
	"fmt"
	"math/rand"
	"time"

	"bate/internal/experiments"
	"bate/internal/partition"
	"bate/internal/routing"
	"bate/internal/topo"
	"bate/internal/wire"
)

// workload is one set of inputs the benchmark runs: a topology, a
// tunnel layout, a book depth and a request shape. Every workload is
// sized so that each submit is admittable; a reject is a failure.
type workload struct {
	name string
	why  string
	net  func() *topo.Network
	// k is the number of shortest tunnels per pair.
	k int
	// regions > 1 turns on partitioned scheduling and draws the pair
	// pool from the locality-biased scale workload (pool pairs, ~90%
	// intra-region, the same pool for every seed); otherwise the pool
	// is every ordered pair.
	regions int
	pool    int
	// book is the number of live demands held throughout the run.
	book       int
	bwLo, bwHi float64
	targets    []float64
	// batch is the number of demands per submit frame; above 1 the
	// client sends TypeSubmitBatch frames and pipelined withdraw bursts.
	batch int
	// gate puts the overload gate (default options) in front of the
	// client sessions.
	gate bool
}

var b4Targets = []float64{0.9, 0.95, 0.99, 0.999}

// workloads lists the benchmark's workloads in BENCHMARK.json order.
// The `why` strings are the short form of bench/README.md.
var workloads = []*workload{
	{
		name: "b4_deep",
		why:  "small graph, deep book: the round is LP-bound, so engine choice and incremental rescheduling show here",
		net:  topo.B4, k: 4, book: 200, bwLo: 50, bwHi: 200, targets: b4Targets, batch: 1,
	},
	{
		name: "synth100_wide",
		why:  "100 brokers, partitioned: the round is backup-bound and the ack push-fan-out-bound, so LP work should not move it",
		net:  topo.Synth100, k: 3, regions: 10, pool: 600, book: 150, bwLo: 50, bwHi: 200,
		targets: []float64{0.9, 0.95, 0.99}, batch: 1,
	},
	{
		name: "b4_batch",
		why:  "submit-batch frames of 8 and pipelined withdraws: a gain for single submits that costs batches shows here",
		net:  topo.B4, k: 4, book: 100, bwLo: 50, bwHi: 200, targets: b4Targets, batch: 8,
	},
	{
		name: "testbed_small",
		why:  "tiny LP behind the overload gate: wire, gate and WAL fsync do most of the work, so solver changes should not move it",
		net:  topo.Testbed, k: 4, book: 40, bwLo: 10, bwHi: 50, targets: b4Targets, batch: 1, gate: true,
	},
}

// smokeWorkload is the -scale smoke input of bench_test.go: small
// enough that a traced and an untraced run finish in seconds.
var smokeWorkload = &workload{
	name: "smoke",
	why:  "testbed at book 10: exercises every phase and every metric in seconds",
	net:  topo.Testbed, k: 4, book: 10, bwLo: 10, bwHi: 50, targets: b4Targets, batch: 1, gate: true,
}

func workloadByName(name string) (*workload, error) {
	for _, w := range append([]*workload{smokeWorkload}, workloads...) {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// maxFail is the scenario pruning depth every workload schedules at.
const maxFail = 2

// layout is a workload's topology with its tunnels and the pair pool
// demands are drawn from.
type layout struct {
	net     *topo.Network
	tunnels *routing.TunnelSet
	pairs   [][2]string // DC names, the form the wire carries
}

// buildLayout builds the topology and computes its tunnels, and
// returns how many milliseconds the tunnel computation took.
func buildLayout(w *workload) (*layout, float64) {
	net := w.net()
	var ids [][2]topo.NodeID
	var tunnels *routing.TunnelSet
	var routed time.Time
	if w.regions > 1 {
		part := partition.New(net, w.regions, nil)
		seen := make(map[[2]topo.NodeID]bool)
		for _, d := range experiments.PartitionWorkload(net, part, w.pool, 1) {
			p := [2]topo.NodeID{d.Pairs[0].Src, d.Pairs[0].Dst}
			if !seen[p] {
				seen[p] = true
				ids = append(ids, p)
			}
		}
		routed = time.Now()
		tunnels = routing.ComputeForPairs(net, routing.KShortest, w.k, ids)
	} else {
		ids = net.Pairs()
		routed = time.Now()
		tunnels = routing.Compute(net, routing.KShortest, w.k)
	}
	tunnelsMs := ms(time.Since(routed))
	l := &layout{net: net, tunnels: tunnels, pairs: make([][2]string, len(ids))}
	for i, p := range ids {
		l.pairs[i] = [2]string{net.NodeName(p[0]), net.NodeName(p[1])}
	}
	return l, tunnelsMs
}

// stream is the connection's seeded demand stream: the book depends on
// the seed and on how many operations have completed, on nothing else.
type stream struct {
	rng   *rand.Rand
	w     *workload
	pairs [][2]string
}

// newStream returns sub-stream sub of the seed: 0 feeds the connection,
// another one the traced run's replays.
func newStream(w *workload, l *layout, seed int64, sub int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed*1000003 + int64(sub) + 1)), w: w, pairs: l.pairs}
}

var refundMenu = []float64{0.1, 0.25, 0.5}

func (s *stream) next() wire.Submit {
	p := s.pairs[s.rng.Intn(len(s.pairs))]
	bw := s.w.bwLo + s.rng.Float64()*(s.w.bwHi-s.w.bwLo)
	return wire.Submit{
		Src: p[0], Dst: p[1], Bandwidth: bw,
		Target:     s.w.targets[s.rng.Intn(len(s.w.targets))],
		Charge:     bw, // unit price per Mbps, as in the paper
		RefundFrac: refundMenu[s.rng.Intn(len(refundMenu))],
	}
}
