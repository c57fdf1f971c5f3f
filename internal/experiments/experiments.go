// Package experiments regenerates every table and figure of the
// paper's evaluation (§5). Each Fig*/Table* function runs the
// corresponding workload and prints the same rows or series the paper
// reports; cmd/bateexp exposes them as subcommands and bench_test.go
// wraps them as benchmarks. Workload sizes are scaled down from the
// paper's 150,000-minute runs so a laptop regenerates every artifact
// in minutes; EXPERIMENTS.md records the scaling next to each result.
package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/pricing"
	"bate/internal/routing"
	"bate/internal/sim"
	"bate/internal/topo"
)

// Options controls experiment scale.
type Options struct {
	// Quick shrinks workloads further (used by benchmarks and smoke
	// tests).
	Quick bool
	// Seed makes runs reproducible.
	Seed int64
	// Repeats overrides the per-experiment repetition count (0 =
	// experiment default, shrunk under Quick).
	Repeats int
}

func (o Options) repeats(def, quick int) int {
	if o.Repeats > 0 {
		return o.Repeats
	}
	if o.Quick {
		return quick
	}
	return def
}

func (o Options) scale(def, quick float64) float64 {
	if o.Quick {
		return quick
	}
	return def
}

// testbedEnv bundles the §5.1 testbed setting.
type testbedEnv struct {
	net     *topo.Network
	tunnels *routing.TunnelSet
}

func newTestbedEnv() testbedEnv {
	n := topo.Testbed()
	return testbedEnv{net: n, tunnels: routing.Compute(n, routing.KShortest, 4)}
}

// testbedWorkload generates the §5.1 Poisson workload: per-pair
// Poisson arrivals, exponential durations, uniform bandwidth, targets
// from the testbed set, refunds from Redis/CDN/VMs.
func (e testbedEnv) workload(rng *rand.Rand, arrivalsPerMin, meanDurSec, horizonSec, minBw, maxBw float64) []*demand.Demand {
	var refunds []demand.RefundChoice
	for _, s := range pricing.TestbedServices {
		refunds = append(refunds, demand.RefundChoice{Service: s.Name, Frac: s.FirstTierCredit()})
	}
	gen := demand.NewGenerator(e.net, demand.GeneratorConfig{
		ArrivalsPerMinute: arrivalsPerMin,
		MeanDurationSec:   meanDurSec,
		MinBandwidth:      minBw,
		MaxBandwidth:      maxBw,
		Targets:           demand.TestbedTargets,
		Refunds:           refunds,
	}, rng)
	return gen.Generate(horizonSec)
}

// table3Demands are the three parallel demands of §5.1 "Evaluations on
// parallel demands" (Table 3, Figs. 9-11).
func (e testbedEnv) table3Demands() []*demand.Demand {
	name := func(s string) topo.NodeID {
		id, _ := e.net.NodeByName(s)
		return id
	}
	return []*demand.Demand{
		{ID: 0, Pairs: []demand.PairDemand{{Src: name("DC1"), Dst: name("DC3"), Bandwidth: 1000}},
			Target: 0.995, Charge: 1000, RefundFrac: 0.10, Service: "Redis"},
		{ID: 1, Pairs: []demand.PairDemand{{Src: name("DC1"), Dst: name("DC4"), Bandwidth: 500}},
			Target: 0.999, Charge: 500, RefundFrac: 0.10, Service: "CDN"},
		{ID: 2, Pairs: []demand.PairDemand{{Src: name("DC1"), Dst: name("DC5"), Bandwidth: 1500}},
			Target: 0.95, Charge: 1500, RefundFrac: 0.10, Service: "Virtual Machines"},
	}
}

func (e testbedEnv) input(demands []*demand.Demand) *alloc.Input {
	return &alloc.Input{Net: e.net, Tunnels: e.tunnels, Demands: demands}
}

// schemesForTestbed are the three schemes implemented on the testbed
// (§5.1): BATE, TEAVAR, FFC.
func schemesForTestbed() []sim.TEKind {
	return []sim.TEKind{sim.KindBATE, sim.KindTEAVAR, sim.KindFFC}
}

// percent formats a fraction as a percentage.
func percent(x float64) string { return fmt.Sprintf("%.2f%%", x*100) }

// fprintHeader prints a figure banner.
func fprintHeader(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n=== %s — %s ===\n", id, title)
}
