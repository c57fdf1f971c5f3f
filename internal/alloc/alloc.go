// Package alloc defines the shared allocation model: which demands
// exist, which tunnels each may use, how much bandwidth f^t_d each
// tunnel carries, and how allocations are evaluated against failure
// scenarios (effective-bandwidth ratios R, achieved availability,
// link loads). Both BATE and the baseline TE schemes produce
// Allocations; the simulator and experiments consume them.
package alloc

import (
	"fmt"
	"math"

	"bate/internal/demand"
	"bate/internal/routing"
	"bate/internal/scenario"
	"bate/internal/topo"
)

// Input bundles a network, its precomputed tunnel sets and the demand
// set a TE scheme must allocate.
type Input struct {
	Net     *topo.Network
	Tunnels *routing.TunnelSet
	Demands []*demand.Demand
	// Drained lists links scheduled for maintenance: FullCapacities
	// reports them as zero-capacity, so every consumer — scheduling,
	// admission, recovery, the baseline schemes — routes traffic off
	// them *before* they actually go down (the proactive drain of a
	// planned maintenance window). Scenario/availability machinery is
	// unaffected: a drained link can still fail while it drains.
	Drained []topo.LinkID
	// Groups are the shared-risk link groups of the declared failure
	// model (scenario.RiskGroup; nil is the paper's independent model).
	// Every scenario-class lookup goes through Classes, so admission,
	// scheduling, hardening and availability checks all see them.
	Groups []scenario.RiskGroup
}

// WithDemands returns a copy of the input with the book replaced by
// ds: same network, tunnels, drains and risk groups. Sub-problems
// (one candidate demand, a partition region, a priority class) derive
// their inputs this way so no per-network fact is dropped.
func (in *Input) WithDemands(ds []*demand.Demand) *Input {
	sub := *in
	sub.Demands = ds
	return &sub
}

// Classes returns demand d's tunnel-state classes under the input's
// failure model — its network and risk groups, pruned at maxFail
// concurrent failure units — memoized through
// scenario.DefaultClassCache. The bool reports a cache hit. The slice
// is shared and read-only.
func (in *Input) Classes(d *demand.Demand, maxFail int) ([]scenario.Class, bool, error) {
	var tunnels []routing.Tunnel
	if len(d.Pairs) == 1 {
		tunnels = in.TunnelsFor(d, 0) // read-only below, so not copied
	} else {
		tunnels = in.AllTunnelsFor(d)
	}
	return scenario.DefaultClassCache.ClassesFor(in.Net, in.Groups, tunnels, maxFail)
}

// TunnelsFor returns the tunnels demand d may use on its pair with
// index pairIdx.
func (in *Input) TunnelsFor(d *demand.Demand, pairIdx int) []routing.Tunnel {
	p := d.Pairs[pairIdx]
	return in.Tunnels.For(p.Src, p.Dst)
}

// AllTunnelsFor returns the concatenated tunnels of every pair of d,
// in pair order. This is the tunnel ordering used for scenario
// classes.
func (in *Input) AllTunnelsFor(d *demand.Demand) []routing.Tunnel {
	var out []routing.Tunnel
	for i := range d.Pairs {
		out = append(out, in.TunnelsFor(d, i)...)
	}
	return out
}

// pairBit returns the class-mask bit of pair pi's first tunnel: a
// class's UpMask numbers d's tunnels in AllTunnelsFor order, so tunnel
// ti of pair pi is bit pairBit(in, d, pi)+ti. ClassTerms and DeliveredIn
// are the only readers of that encoding.
func pairBit(in *Input, d *demand.Demand, pi int) int {
	bit := 0
	for q := 0; q < pi; q++ {
		bit += len(in.TunnelsFor(d, q))
	}
	return bit
}

// Allocation maps demand ID -> pair index -> tunnel index -> Mbps
// (the f^t_d output variables of Table 2).
type Allocation map[int][][]float64

// New returns an all-zero allocation shaped for the input's demands.
func New(in *Input) Allocation {
	a := make(Allocation, len(in.Demands))
	for _, d := range in.Demands {
		rows := make([][]float64, len(d.Pairs))
		for i := range d.Pairs {
			rows[i] = make([]float64, len(in.TunnelsFor(d, i)))
		}
		a[d.ID] = rows
	}
	return a
}

// Clone deep-copies the allocation.
func (a Allocation) Clone() Allocation {
	out := make(Allocation, len(a))
	for id, rows := range a {
		nr := make([][]float64, len(rows))
		for i, r := range rows {
			nr[i] = append([]float64(nil), r...)
		}
		out[id] = nr
	}
	return out
}

// Total returns Σ f^t_d over all demands, pairs and tunnels (the
// objective of the scheduling LP, Eq. 7).
func (a Allocation) Total() float64 {
	sum := 0.0
	for _, rows := range a {
		for _, r := range rows {
			for _, f := range r {
				sum += f
			}
		}
	}
	return sum
}

// AllocatedFor returns Σ_t f^t_d for one pair of demand d.
func (a Allocation) AllocatedFor(d *demand.Demand, pairIdx int) float64 {
	rows, ok := a[d.ID]
	if !ok || pairIdx >= len(rows) {
		return 0
	}
	sum := 0.0
	for _, f := range rows[pairIdx] {
		sum += f
	}
	return sum
}

// Delivered returns the effective bandwidth of demand d's pair under a
// tunnel-up predicate (Σ_t f^t_d · v^z_t of Eq. 2).
func (a Allocation) Delivered(in *Input, d *demand.Demand, pairIdx int, up func(routing.Tunnel) bool) float64 {
	rows, ok := a[d.ID]
	if !ok || pairIdx >= len(rows) {
		return 0
	}
	tunnels := in.TunnelsFor(d, pairIdx)
	sum := 0.0
	for ti, f := range rows[pairIdx] {
		if f > 0 && up(tunnels[ti]) {
			sum += f
		}
	}
	return sum
}

// DeliveredIn returns pair pi of d's delivered bandwidth in
// tunnel-state class cls: Σ f^t_d over the tunnels up in the class,
// summed in tunnel order (the value ClassTerms constrains).
func (a Allocation) DeliveredIn(in *Input, d *demand.Demand, pi int, cls scenario.Class) float64 {
	rows := a[d.ID]
	if pi >= len(rows) {
		return 0
	}
	bit := pairBit(in, d, pi)
	sum := 0.0
	for ti, f := range rows[pi] {
		if cls.TunnelUp(bit + ti) {
			sum += f
		}
	}
	return sum
}

// Ratio returns R^z_dk = delivered/demanded for pair pairIdx of d
// under the tunnel-up predicate (Eq. 2). A zero-bandwidth pair counts
// as fully satisfied.
func (a Allocation) Ratio(in *Input, d *demand.Demand, pairIdx int, up func(routing.Tunnel) bool) float64 {
	b := d.Pairs[pairIdx].Bandwidth
	if b <= 0 {
		return 1
	}
	return a.Delivered(in, d, pairIdx, up) / b
}

// LinkLoads returns the total allocated bandwidth per link (the LHS of
// the capacity constraint, Eq. 6).
func (a Allocation) LinkLoads(in *Input) []float64 {
	loads := make([]float64, in.Net.NumLinks())
	for _, d := range in.Demands {
		rows, ok := a[d.ID]
		if !ok {
			continue
		}
		for pi := range d.Pairs {
			if pi >= len(rows) {
				continue
			}
			tunnels := in.TunnelsFor(d, pi)
			for ti, f := range rows[pi] {
				if f <= 0 {
					continue
				}
				for _, e := range tunnels[ti].Links {
					loads[e] += f
				}
			}
		}
	}
	return loads
}

// MaxUtilization returns the maximum link load / capacity ratio.
func (a Allocation) MaxUtilization(in *Input) float64 {
	loads := a.LinkLoads(in)
	maxU := 0.0
	for _, l := range in.Net.Links() {
		if u := loads[l.ID] / l.Capacity; u > maxU {
			maxU = u
		}
	}
	return maxU
}

// MeanUtilization returns the capacity-weighted mean link utilization.
func (a Allocation) MeanUtilization(in *Input) float64 {
	loads := a.LinkLoads(in)
	var load, capacity float64
	for _, l := range in.Net.Links() {
		load += loads[l.ID]
		capacity += l.Capacity
	}
	if capacity == 0 {
		return 0
	}
	return load / capacity
}

// CheckCapacity verifies Eq. 6: no link carries more than its
// capacity (within tol).
func (a Allocation) CheckCapacity(in *Input, tol float64) error {
	loads := a.LinkLoads(in)
	for _, l := range in.Net.Links() {
		if loads[l.ID] > l.Capacity+tol {
			return fmt.Errorf("alloc: link %d overloaded: %.3f > %.3f", l.ID, loads[l.ID], l.Capacity)
		}
	}
	return nil
}

// AchievedAvailability computes the probability (over failure
// scenarios with at most maxFail concurrent failure units, under the
// input's risk groups) that every pair of demand d receives its full
// bandwidth — the Σ_{z qualified} p_z of §3.1. Pruned scenarios count
// as unqualified.
func AchievedAvailability(in *Input, a Allocation, d *demand.Demand, maxFail int) (float64, error) {
	classes, _, err := in.Classes(d, maxFail)
	if err != nil {
		return 0, err
	}
	avail := 0.0
	for _, cls := range classes {
		if classQualified(in, a, d, cls) {
			avail += cls.Prob
		}
	}
	return avail, nil
}

// classQualified reports whether allocation a fully satisfies every
// pair of d in tunnel-state class cls. The tolerance is relative so
// that solver-epsilon slack (schemes constrain delivery with (1-1e-9)
// factors) never flips a fully-served pair to unqualified.
func classQualified(in *Input, a Allocation, d *demand.Demand, cls scenario.Class) bool {
	for pi, p := range d.Pairs {
		if a.DeliveredIn(in, d, pi, cls) < p.Bandwidth*(1-1e-7)-1e-6 {
			return false
		}
	}
	return true
}

// RelaxedAvailability computes the Eq. 3-4 B-relaxed availability of
// allocation a for demand d under the input's failure model: per
// tunnel-state class, B = min over pairs of min(1, delivered/b), and
// the result is Σ p_class · B. This is exactly the quantity the
// scheduling LP constrains to be ≥ β_d, so verification of LP outputs
// (e.g. the partitioned-scheduling property test) checks it rather
// than the stricter all-or-nothing AchievedAvailability.
func RelaxedAvailability(in *Input, a Allocation, d *demand.Demand, maxFail int) (float64, error) {
	classes, _, err := in.Classes(d, maxFail)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, cls := range classes {
		b := 1.0
		for pi, p := range d.Pairs {
			if p.Bandwidth > 0 {
				if r := a.DeliveredIn(in, d, pi, cls) / p.Bandwidth; r < b {
					b = r
				}
			}
		}
		if b > 0 {
			total += cls.Prob * b
		}
	}
	return total, nil
}

// Satisfies reports whether the achieved availability of d meets its
// target β_d under ≤maxFail-unit scenarios of the input's failure model.
func Satisfies(in *Input, a Allocation, d *demand.Demand, maxFail int) (bool, error) {
	if d.Target <= 0 {
		return true, nil // best-effort
	}
	av, err := AchievedAvailability(in, a, d, maxFail)
	if err != nil {
		return false, err
	}
	return av >= d.Target-1e-9, nil
}

// ResidualCapacities returns per-link capacity minus current load,
// floored at zero. Capacity is FullCapacities', so a drained link has
// none left.
func (a Allocation) ResidualCapacities(in *Input) []float64 {
	out := FullCapacities(in)
	for e, load := range a.LinkLoads(in) {
		out[e] = math.Max(0, out[e]-load)
	}
	return out
}
