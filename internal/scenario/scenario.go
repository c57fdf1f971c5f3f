// Package scenario models network failure scenarios (§3.1): a
// scenario is a set of simultaneously failed links with probability
// p_z = Π z_i(1-x_i) + (1-z_i)x_i under independent link failures,
// optionally extended with shared-risk link groups that fail as one
// unit (see RiskGroup).
//
// BATE prunes the exponential scenario space by considering at most y
// concurrent failures and aggregating everything else into one
// unqualified residual scenario (Fig. 3). This package provides both
// an explicit enumeration of the pruned set (the paper-faithful LP of
// Fig. 16/17) and an exact analytic aggregation of scenarios into
// tunnel-state classes, memoized by ClassCache (the fast scheduling
// LP; see DESIGN.md).
package scenario

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"bate/internal/parallel"
	"bate/internal/routing"
	"bate/internal/topo"
)

// Scenario is one network failure scenario: the set of down links and
// its probability.
type Scenario struct {
	Down []topo.LinkID // sorted ascending
	Prob float64
}

// LinkUp reports whether link e is up in the scenario (w^z_e).
func (s Scenario) LinkUp(e topo.LinkID) bool {
	i := sort.Search(len(s.Down), func(i int) bool { return s.Down[i] >= e })
	return i >= len(s.Down) || s.Down[i] != e
}

// TunnelUp reports whether every link of t is up (v^z_t).
func (s Scenario) TunnelUp(t routing.Tunnel) bool {
	for _, e := range t.Links {
		if !s.LinkUp(e) {
			return false
		}
	}
	return true
}

// Set is a pruned scenario set: all scenarios with at most MaxFail
// concurrent failure units, plus the aggregated residual probability
// of every pruned (and therefore unqualified) scenario.
type Set struct {
	Net       *topo.Network
	MaxFail   int
	Scenarios []Scenario
	// Residual is the total probability of pruned scenarios.
	Residual float64
}

// MaxEnumerated guards against materializing enormous scenario sets;
// Enumerate returns an error beyond this many scenarios.
const MaxEnumerated = 2_000_000

// Enumerate returns the pruned scenario set with at most maxFail
// failure units down at once: every link is a unit, and so is every
// risk group, which takes all of its links down together. Scenario 0
// is always the all-up scenario. With groups, one down-link set can
// arise from several unit combinations (a link alone, or inside its
// group); those merge into one scenario, kept at its first position.
//
// Large sets are enumerated in parallel, fanned out over the subtrees
// rooted at each first-failed unit. The decomposition is exact: the
// serial depth-first order emits the all-up scenario followed by the
// subtree of scenarios whose smallest down unit is u, for u ascending,
// and every scenario's probability is the same product chain either
// way — so the output is byte-identical at any worker count.
func Enumerate(net *topo.Network, groups []RiskGroup, maxFail int) (*Set, error) {
	if maxFail < 0 {
		return nil, fmt.Errorf("scenario: negative maxFail %d", maxFail)
	}
	if err := validateGroups(net, groups); err != nil {
		return nil, err
	}
	probs := unitProbs(net, groups)
	count := Count(len(probs), maxFail)
	if count > MaxEnumerated {
		return nil, fmt.Errorf("scenario: %d scenarios exceed limit %d (links=%d, groups=%d, y=%d)",
			count, MaxEnumerated, net.NumLinks(), len(groups), maxFail)
	}
	allUp := 1.0
	odds := make([]float64, len(probs)) // x_u / (1-x_u)
	for i, x := range probs {
		allUp *= 1 - x
		odds[i] = x / (1 - x)
	}
	nLinks := net.NumLinks()
	// downLinks maps ascending down units to the sorted down-link set.
	// Link units come first with unit index = link id, so without groups
	// the set is already sorted.
	downLinks := func(down []int) []topo.LinkID {
		var out []topo.LinkID
		for _, u := range down {
			if u < nLinks {
				out = append(out, topo.LinkID(u))
			} else {
				out = append(out, groups[u-nLinks].Links...)
			}
		}
		if len(groups) > 0 {
			slices.Sort(out)
			out = slices.Compact(out)
		}
		return out
	}

	// subtree enumerates every scenario whose smallest down unit is
	// first (first < 0: the whole tree), depth-first in ascending unit
	// order, appending to out.
	subtree := func(first int, prob float64, out *[]Scenario) {
		var down []int
		var rec func(start int, prob float64)
		rec = func(start int, prob float64) {
			*out = append(*out, Scenario{Down: downLinks(down), Prob: prob})
			if len(down) == maxFail {
				return
			}
			for i := start; i < len(probs); i++ {
				down = append(down, i)
				rec(i+1, prob*odds[i])
				down = down[:len(down)-1]
			}
		}
		if first < 0 {
			rec(0, prob)
			return
		}
		down = append(down, first)
		rec(first+1, prob)
	}

	var scenarios []Scenario
	pool := parallel.Default()
	if maxFail == 0 || count < parallelEnumerateThreshold || pool.Size() <= 1 {
		subtree(-1, allUp, &scenarios)
	} else {
		// Root scenario first, then one fan-out task per first unit.
		scenarios = append(scenarios, Scenario{Prob: allUp})
		buckets := make([][]Scenario, len(probs))
		err := pool.ForEach(context.Background(), len(probs), func(i int) error {
			subtree(i, allUp*odds[i], &buckets[i])
			return nil
		})
		if err != nil {
			return nil, err
		}
		for _, b := range buckets {
			scenarios = append(scenarios, b...)
		}
	}
	// Sum serially over the unmerged slice so Residual is bit-identical
	// to the serial enumeration regardless of worker count.
	total := 0.0
	for _, sc := range scenarios {
		total += sc.Prob
	}
	if len(groups) > 0 {
		scenarios = mergeByDownSet(scenarios)
	}
	return &Set{Net: net, MaxFail: maxFail, Scenarios: scenarios, Residual: math.Max(0, 1-total)}, nil
}

// mergeByDownSet folds scenarios with identical down-link sets into the
// first one seen, summing probabilities in slice order.
func mergeByDownSet(scenarios []Scenario) []Scenario {
	index := make(map[string]int, len(scenarios))
	out := make([]Scenario, 0, len(scenarios))
	for _, sc := range scenarios {
		key := fmt.Sprint(sc.Down)
		if i, ok := index[key]; ok {
			out[i].Prob += sc.Prob
			continue
		}
		index[key] = len(out)
		out = append(out, sc)
	}
	return out
}

// parallelEnumerateThreshold is the scenario count below which the
// fan-out overhead exceeds the enumeration cost.
const parallelEnumerateThreshold = 4096

// Count returns the number of scenarios with at most maxFail failures
// among nLinks links: sum_{i=0}^{y} C(n, i). Saturates at MaxInt64.
func Count(nLinks, maxFail int) int64 {
	var total int64 = 0
	c := int64(1) // C(n, 0)
	for i := 0; i <= maxFail && i <= nLinks; i++ {
		if total > math.MaxInt64-c {
			return math.MaxInt64
		}
		total += c
		if i == nLinks {
			break
		}
		// C(n, i+1) = C(n, i) * (n-i) / (i+1); guard overflow.
		if c > math.MaxInt64/int64(nLinks-i) {
			return math.MaxInt64
		}
		c = c * int64(nLinks-i) / int64(i+1)
	}
	return total
}

// Class aggregates all scenarios in which exactly the tunnels set in
// UpMask (bit i ↔ tunnel i) are up, within the ≤maxFail pruned space.
type Class struct {
	UpMask uint64
	Prob   float64
}

// AllUp reports whether every one of n tunnels is up in the class.
func (c Class) AllUp(n int) bool { return c.UpMask == (uint64(1)<<n)-1 }

// TunnelUp reports whether tunnel i is up in the class.
func (c Class) TunnelUp(i int) bool { return c.UpMask&(1<<uint(i)) != 0 }

// Weibull samples from a Weibull distribution with shape k and scale
// lambda: λ·(-ln U)^(1/k).
func Weibull(rng *rand.Rand, shape, scale float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return scale * math.Pow(-math.Log(u), 1/shape)
}

// FailProbScale maps a Weibull(8, 0.6) sample into the empirical
// failure-probability band of Fig. 1(b) (1e-4 % to 1e-2 %): a sample w
// becomes the fraction w·1e-4.
const FailProbScale = 1e-4

// WeibullFailProbs draws n link failure probabilities matching the
// paper's simulation setup (§5.2: Weibull, shape 8, scale 0.6, fitted
// to Fig. 1(b)). Results are fractions in (0, ~1e-4·1.2].
func WeibullFailProbs(rng *rand.Rand, n int) []float64 {
	probs := make([]float64, n)
	for i := range probs {
		probs[i] = Weibull(rng, 8, 0.6) * FailProbScale
	}
	return probs
}
