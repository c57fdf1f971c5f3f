package scenario

import (
	"fmt"
	"sort"

	"bate/internal/routing"
	"bate/internal/topo"
)

// Shared-risk link groups (SRLGs) relax the paper's independence
// assumption (§3.1 footnote 3): links sharing a fiber conduit, an
// optical segment or a line card fail together. A RiskGroup is one
// such set with its own failure probability. Scenarios count link
// failures and group failures as independent *units*, where a link is
// down if its own failure fires or any containing group fires; with no
// groups the units are the links and the model is the paper's.

// RiskGroup is a set of links that fail together with probability
// Prob.
type RiskGroup struct {
	Name  string
	Links []topo.LinkID
	Prob  float64
}

// validateGroups checks every group against the network: a probability
// in [0,1), at least one link, and only links the network has.
func validateGroups(net *topo.Network, groups []RiskGroup) error {
	for _, g := range groups {
		if g.Prob < 0 || g.Prob >= 1 {
			return fmt.Errorf("scenario: group %q probability %v out of [0,1)", g.Name, g.Prob)
		}
		if len(g.Links) == 0 {
			return fmt.Errorf("scenario: group %q has no links", g.Name)
		}
		for _, e := range g.Links {
			if int(e) < 0 || int(e) >= net.NumLinks() {
				return fmt.Errorf("scenario: group %q references unknown link %d", g.Name, e)
			}
		}
	}
	return nil
}

// unitProbs returns the failure probability of every failure unit:
// each link in id order, then each group.
func unitProbs(net *topo.Network, groups []RiskGroup) []float64 {
	probs := make([]float64, 0, net.NumLinks()+len(groups))
	for _, l := range net.Links() {
		probs = append(probs, l.FailProb)
	}
	for _, g := range groups {
		probs = append(probs, g.Prob)
	}
	return probs
}

// atMostFailures returns tail[m] = P(at most m of the independent
// events with the given probabilities occur), for m = 0..maxFail, via
// a Poisson-binomial DP.
func atMostFailures(probs []float64, maxFail int) []float64 {
	// dp[j] = P(exactly j events so far), truncated at maxFail.
	dp := make([]float64, maxFail+1)
	dp[0] = 1
	for _, x := range probs {
		for j := maxFail; j >= 1; j-- {
			dp[j] = dp[j]*(1-x) + dp[j-1]*x
		}
		dp[0] *= 1 - x
	}
	tail := make([]float64, maxFail+1)
	sum := 0.0
	for m := 0; m <= maxFail; m++ {
		sum += dp[m]
		tail[m] = sum
	}
	return tail
}

// classesFor computes, exactly and without enumerating the full
// scenario space, the probability of every tunnel-up/down combination
// among the given tunnels, restricted to scenarios with at most maxFail
// failure units (links or risk groups) down. Scenarios beyond maxFail
// contribute to no class (they are the pruned residual). At most 63
// tunnels are supported. Callers reach it through ClassCache.ClassesFor.
//
// This is exact because units fail independently and a scenario's
// effect on the tunnels depends only on the "relevant" units: the
// links the tunnels traverse and the groups touching them. For each
// down-subset S of the relevant units it multiplies by the
// Poisson-binomial probability that the remaining units suffer at most
// maxFail-|S| failures.
func classesFor(net *topo.Network, groups []RiskGroup, tunnels []routing.Tunnel, maxFail int) ([]Class, error) {
	if len(tunnels) > 63 {
		return nil, fmt.Errorf("scenario: %d tunnels exceed the 63-tunnel class limit", len(tunnels))
	}
	if err := validateGroups(net, groups); err != nil {
		return nil, err
	}
	relLinks := make(map[topo.LinkID]bool)
	for _, t := range tunnels {
		for _, e := range t.Links {
			relLinks[e] = true
		}
	}
	// Each relevant unit's "kill mask" marks the tunnels it takes down.
	type unit struct {
		prob float64
		kill uint64
	}
	killOf := func(links []topo.LinkID) uint64 {
		var mask uint64
		for ti, t := range tunnels {
			for _, e := range t.Links {
				for _, d := range links {
					if d == e {
						mask |= 1 << uint(ti)
					}
				}
			}
		}
		return mask
	}
	var rel []unit
	otherProbs := make([]float64, 0, net.NumLinks()+len(groups))
	for _, l := range net.Links() {
		if relLinks[l.ID] {
			rel = append(rel, unit{prob: l.FailProb, kill: killOf([]topo.LinkID{l.ID})})
		} else {
			otherProbs = append(otherProbs, l.FailProb)
		}
	}
	for _, g := range groups {
		if k := killOf(g.Links); k != 0 {
			rel = append(rel, unit{prob: g.Prob, kill: k})
		} else {
			otherProbs = append(otherProbs, g.Prob)
		}
	}
	if len(rel) > 30 {
		return nil, fmt.Errorf("scenario: %d relevant units exceed the 2^30 subset limit", len(rel))
	}
	tail := atMostFailures(otherProbs, maxFail)

	base := 1.0
	odds := make([]float64, len(rel))
	for i, u := range rel {
		base *= 1 - u.prob
		odds[i] = u.prob / (1 - u.prob)
	}
	allUp := (uint64(1) << uint(len(tunnels))) - 1
	probs := make(map[uint64]float64)
	var downIdx []int
	var rec func(start int, prob float64)
	rec = func(start int, prob float64) {
		up := allUp
		for _, i := range downIdx {
			up &^= rel[i].kill
		}
		probs[up] += prob * tail[maxFail-len(downIdx)]
		if len(downIdx) == maxFail {
			return
		}
		for i := start; i < len(rel); i++ {
			downIdx = append(downIdx, i)
			rec(i+1, prob*odds[i])
			downIdx = downIdx[:len(downIdx)-1]
		}
	}
	rec(0, base)

	classes := make([]Class, 0, len(probs))
	for m, p := range probs {
		classes = append(classes, Class{UpMask: m, Prob: p})
	}
	sort.Slice(classes, func(i, j int) bool { return classes[i].UpMask > classes[j].UpMask })
	return classes, nil
}
