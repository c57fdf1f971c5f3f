package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bate/internal/routing"
	"bate/internal/topo"
)

func TestEnumerateToy(t *testing.T) {
	n := topo.Toy() // 8 links
	set, err := Enumerate(n, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Scenarios) != 9 { // all-up + 8 single failures
		t.Fatalf("got %d scenarios, want 9", len(set.Scenarios))
	}
	// Scenario 0 is all-up with probability Π(1-x).
	want := 1.0
	for _, l := range n.Links() {
		want *= 1 - l.FailProb
	}
	if math.Abs(set.Scenarios[0].Prob-want) > 1e-12 {
		t.Fatalf("all-up prob = %v, want %v", set.Scenarios[0].Prob, want)
	}
	// Probabilities plus residual sum to 1.
	sum := set.Residual
	for _, s := range set.Scenarios {
		sum += s.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("total probability = %v", sum)
	}
}

func TestEnumerateCountsMatch(t *testing.T) {
	n := topo.Testbed() // 16 links
	for y := 0; y <= 3; y++ {
		set, err := Enumerate(n, nil, y)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(set.Scenarios)) != Count(16, y) {
			t.Fatalf("y=%d: %d scenarios, Count says %d", y, len(set.Scenarios), Count(16, y))
		}
	}
}

func TestCount(t *testing.T) {
	cases := []struct {
		n, y int
		want int64
	}{
		{38, 0, 1},
		{38, 1, 39},
		{38, 2, 39 + 703},
		{4, 4, 16},
		{4, 9, 16},
	}
	for _, c := range cases {
		if got := Count(c.n, c.y); got != c.want {
			t.Errorf("Count(%d,%d) = %d, want %d", c.n, c.y, got, c.want)
		}
	}
	if Count(200, 50) <= 0 {
		t.Error("Count should saturate, not overflow")
	}
}

func TestEnumerateLimits(t *testing.T) {
	if _, err := Enumerate(topo.ATT(), nil, 4); err == nil {
		t.Fatal("expected limit error for ATT y=4")
	}
	if _, err := Enumerate(topo.Toy(), nil, -1); err == nil {
		t.Fatal("expected error for negative maxFail")
	}
}

func TestLinkAndTunnelUp(t *testing.T) {
	n := topo.Toy()
	sc := Scenario{Down: []topo.LinkID{2, 5}}
	if sc.LinkUp(2) || sc.LinkUp(5) {
		t.Fatal("down links reported up")
	}
	if !sc.LinkUp(0) || !sc.LinkUp(7) {
		t.Fatal("up links reported down")
	}
	dc1, _ := n.NodeByName("DC1")
	dc4, _ := n.NodeByName("DC4")
	paths := routing.YenKSP(n, dc1, dc4, 2)
	for _, p := range paths {
		up := Scenario{}
		if !up.TunnelUp(p) {
			t.Fatal("tunnel down in all-up scenario")
		}
		down := Scenario{Down: []topo.LinkID{p.Links[0]}}
		if down.TunnelUp(p) {
			t.Fatal("tunnel up despite failed link")
		}
	}
}

// classesByEnumeration computes tunnel-state class probabilities by
// brute-force streaming over the enumerated scenario set.
func classesByEnumeration(t *testing.T, n *topo.Network, tunnels []routing.Tunnel, y int) map[uint64]float64 {
	t.Helper()
	set, err := Enumerate(n, nil, y)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[uint64]float64)
	for _, sc := range set.Scenarios {
		var mask uint64
		for i, tun := range tunnels {
			if sc.TunnelUp(tun) {
				mask |= 1 << uint(i)
			}
		}
		out[mask] += sc.Prob
	}
	return out
}

func TestClassesForMatchesEnumeration(t *testing.T) {
	for _, netName := range []string{"Toy4", "Testbed6"} {
		n, err := topo.ByName(netName)
		if err != nil {
			t.Fatal(err)
		}
		dc1, _ := n.NodeByName("DC1")
		dc4, _ := n.NodeByName("DC4")
		tunnels := routing.YenKSP(n, dc1, dc4, 4)
		for y := 0; y <= 3; y++ {
			want := classesByEnumeration(t, n, tunnels, y)
			classes, err := classesFor(n, nil, tunnels, y)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[uint64]float64)
			for _, c := range classes {
				got[c.UpMask] += c.Prob
			}
			for mask, p := range want {
				if math.Abs(got[mask]-p) > 1e-12 {
					t.Fatalf("%s y=%d mask %b: got %v want %v", netName, y, mask, got[mask], p)
				}
			}
			for mask, p := range got {
				if p > 1e-15 && math.Abs(want[mask]-p) > 1e-12 {
					t.Fatalf("%s y=%d: unexpected class %b prob %v", netName, y, mask, p)
				}
			}
		}
	}
}

func TestClassesForB4DeepPruning(t *testing.T) {
	// y=4 on B4 would be 74k scenarios enumerated; the analytic path
	// must still be instant and sum to P(<=4 failures).
	n := topo.B4()
	tunnels := routing.YenKSP(n, 0, 7, 4)
	classes, err := classesFor(n, nil, tunnels, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for _, c := range classes {
		sum += c.Prob
	}
	tail := atMostFailures(unitProbs(n, nil), 4)
	if math.Abs(sum-tail[4]) > 1e-9 {
		t.Fatalf("classes sum %v != P(<=4 failures) %v", sum, tail[4])
	}
	// The all-up class dominates on reliable links.
	if !classes[0].AllUp(len(tunnels)) || classes[0].Prob < 0.9 {
		t.Fatalf("first class %+v should be all-up with high prob", classes[0])
	}
}

func TestClassHelpers(t *testing.T) {
	c := Class{UpMask: 0b101}
	if !c.TunnelUp(0) || c.TunnelUp(1) || !c.TunnelUp(2) {
		t.Fatal("TunnelUp wrong")
	}
	if c.AllUp(3) {
		t.Fatal("AllUp(3) should be false for 0b101")
	}
	if !(Class{UpMask: 0b111}).AllUp(3) {
		t.Fatal("AllUp(3) should be true for 0b111")
	}
}

func TestClassesForErrors(t *testing.T) {
	n := topo.Toy()
	var many []routing.Tunnel
	dc1, _ := n.NodeByName("DC1")
	dc4, _ := n.NodeByName("DC4")
	paths := routing.YenKSP(n, dc1, dc4, 2)
	for i := 0; i < 70; i++ {
		many = append(many, paths[0])
	}
	if _, err := classesFor(n, nil, many, 1); err == nil {
		t.Fatal("expected tunnel-count error")
	}
}

func TestWeibullMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const samples = 200000
	sum := 0.0
	for i := 0; i < samples; i++ {
		sum += Weibull(rng, 8, 0.6)
	}
	mean := sum / samples
	// E[Weibull(k=8, λ=0.6)] = 0.6·Γ(1+1/8) ≈ 0.5651.
	want := 0.6 * math.Gamma(1+1.0/8)
	if math.Abs(mean-want) > 0.01 {
		t.Fatalf("mean = %v, want ≈ %v", mean, want)
	}
}

func TestWeibullFailProbsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	probs := WeibullFailProbs(rng, 1000)
	for _, p := range probs {
		if p <= 0 || p > 2e-4 {
			t.Fatalf("failure probability %v outside Fig.1(b) band", p)
		}
	}
}

func TestAtMostFailuresUniform(t *testing.T) {
	// 4 links at x=0.5 each: P(<=1 failures) = C(4,0)/16 + C(4,1)/16 = 5/16.
	probs := make([]float64, 8)
	for i := range probs {
		probs[i] = 0.5
	}
	n, err := topo.Toy().WithFailProbs(probs)
	if err != nil {
		t.Fatal(err)
	}
	tail := atMostFailures(unitProbs(n, nil), 1)
	want := (1.0 + 8.0) / 256.0
	if math.Abs(tail[1]-want) > 1e-12 {
		t.Fatalf("tail[1] = %v, want %v", tail[1], want)
	}
}

// Randomized cross-check: on random small graphs with random failure
// probabilities, the analytic class aggregation must match streaming
// enumeration for every pruning depth.
func TestClassesForMatchesEnumerationRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 15; trial++ {
		nodes := 4 + rng.Intn(3)
		b := topo.NewBuilder("rand")
		names := make([]string, nodes)
		for i := range names {
			names[i] = string(rune('A' + i))
			b.Node(names[i])
		}
		// Ring plus random chords, random failure probabilities.
		for i := 0; i < nodes; i++ {
			b.Bidi(names[i], names[(i+1)%nodes], 1000, rng.Float64()*0.05)
		}
		for c := 0; c < 2; c++ {
			a, d := rng.Intn(nodes), rng.Intn(nodes)
			if a != d && (a+1)%nodes != d && (d+1)%nodes != a {
				b.Bidi(names[a], names[d], 1000, rng.Float64()*0.05)
			}
		}
		n, err := b.Build()
		if err != nil {
			continue // duplicate chord; skip this trial
		}
		src := topo.NodeID(rng.Intn(nodes))
		dst := topo.NodeID((int(src) + 1 + rng.Intn(nodes-1)) % nodes)
		tunnels := routing.YenKSP(n, src, dst, 3)
		if len(tunnels) == 0 {
			continue
		}
		for y := 1; y <= 2; y++ {
			classes, err := classesFor(n, nil, tunnels, y)
			if err != nil {
				t.Fatal(err)
			}
			got := make(map[uint64]float64)
			for _, c := range classes {
				got[c.UpMask] += c.Prob
			}
			want := classesByEnumeration(t, n, tunnels, y)
			for mask, p := range want {
				if math.Abs(got[mask]-p) > 1e-10 {
					t.Fatalf("trial %d y=%d mask %b: got %v want %v", trial, y, mask, got[mask], p)
				}
			}
		}
	}
}

// Class probabilities are monotone in the pruning depth: deeper
// pruning can only add probability mass to each class.
func TestClassesMonotoneInDepth(t *testing.T) {
	n := topo.Testbed()
	dc1, _ := n.NodeByName("DC1")
	dc5, _ := n.NodeByName("DC5")
	tunnels := routing.YenKSP(n, dc1, dc5, 4)
	prev := make(map[uint64]float64)
	prevTotal := 0.0
	for y := 0; y <= 4; y++ {
		classes, err := classesFor(n, nil, tunnels, y)
		if err != nil {
			t.Fatal(err)
		}
		cur := make(map[uint64]float64)
		total := 0.0
		for _, c := range classes {
			cur[c.UpMask] += c.Prob
			total += c.Prob
		}
		if total < prevTotal-1e-12 {
			t.Fatalf("y=%d total %v < y=%d total %v", y, total, y-1, prevTotal)
		}
		for mask, p := range prev {
			if cur[mask] < p-1e-12 {
				t.Fatalf("y=%d class %b shrank: %v -> %v", y, mask, p, cur[mask])
			}
		}
		prev, prevTotal = cur, total
	}
}

func TestEnumerateGroups(t *testing.T) {
	n := topo.Toy()
	// The two directions of the DC1-DC2 fiber share a conduit.
	group := RiskGroup{Name: "conduit", Links: []topo.LinkID{0, 1}, Prob: 0.01}
	set, err := Enumerate(n, []RiskGroup{group}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Units: 8 links + 1 group → 10 scenarios at maxFail 1, all with
	// distinct down sets.
	if len(set.Scenarios) != 10 {
		t.Fatalf("got %d scenarios", len(set.Scenarios))
	}
	// The group scenario takes both directions down at once.
	found := false
	for _, sc := range set.Scenarios {
		if len(sc.Down) == 2 && sc.Down[0] == 0 && sc.Down[1] == 1 {
			found = true
			if sc.Prob <= 0 {
				t.Fatal("group scenario has zero probability")
			}
		}
	}
	if !found {
		t.Fatal("correlated two-link scenario missing")
	}
	// Probabilities plus residual still sum to 1.
	sum := set.Residual
	for _, sc := range set.Scenarios {
		sum += sc.Prob
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("total %v", sum)
	}
}

func TestEnumerateGroupsMerging(t *testing.T) {
	// With maxFail 2, link-0-down can arise alone or inside the group;
	// identical down sets must merge into one scenario.
	n := topo.Toy()
	group := RiskGroup{Name: "g", Links: []topo.LinkID{0, 1}, Prob: 0.01}
	set, err := Enumerate(n, []RiskGroup{group}, 2)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for _, sc := range set.Scenarios {
		key := fmt.Sprint(sc.Down)
		seen[key]++
		if seen[key] > 1 {
			t.Fatalf("down set %v appears twice", sc.Down)
		}
	}
	// {0,1} is reachable as (group), (link0+link1), (group+link0),
	// (group+link1): its merged probability must exceed the pure
	// independent product.
	indep := 0.0
	for _, sc := range set.Scenarios {
		if fmt.Sprint(sc.Down) == fmt.Sprint([]topo.LinkID{0, 1}) {
			indep = sc.Prob
		}
	}
	l0 := n.Link(0).FailProb
	l1 := n.Link(1).FailProb
	if indep <= l0*l1 {
		t.Fatalf("correlated prob %v not above independent %v", indep, l0*l1)
	}
}

func TestEnumerateGroupsValidation(t *testing.T) {
	n := topo.Toy()
	cases := []RiskGroup{
		{Name: "bad-prob", Links: []topo.LinkID{0}, Prob: 1.5},
		{Name: "empty", Prob: 0.1},
		{Name: "bad-link", Links: []topo.LinkID{99}, Prob: 0.1},
	}
	for _, g := range cases {
		if _, err := Enumerate(n, []RiskGroup{g}, 1); err == nil {
			t.Errorf("group %q: expected error", g.Name)
		}
	}
	if _, err := Enumerate(n, nil, -1); err == nil {
		t.Error("expected negative maxFail error")
	}
}

// Class aggregation under risk groups must match brute force over the
// grouped scenario set.
func TestClassesForGroupsMatchesEnumeration(t *testing.T) {
	n := topo.Toy()
	dc1, _ := n.NodeByName("DC1")
	dc4, _ := n.NodeByName("DC4")
	tunnels := routing.YenKSP(n, dc1, dc4, 2)
	groups := []RiskGroup{
		{Name: "conduit12", Links: []topo.LinkID{0, 1}, Prob: 0.02},
		{Name: "conduit34", Links: []topo.LinkID{4, 5}, Prob: 0.005},
	}
	for y := 1; y <= 2; y++ {
		set, err := Enumerate(n, groups, y)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64]float64)
		for _, sc := range set.Scenarios {
			var mask uint64
			for i, tun := range tunnels {
				if sc.TunnelUp(tun) {
					mask |= 1 << uint(i)
				}
			}
			want[mask] += sc.Prob
		}
		classes, err := classesFor(n, groups, tunnels, y)
		if err != nil {
			t.Fatal(err)
		}
		got := make(map[uint64]float64)
		for _, c := range classes {
			got[c.UpMask] += c.Prob
		}
		for mask, p := range want {
			if math.Abs(got[mask]-p) > 1e-12 {
				t.Fatalf("y=%d mask %b: got %v want %v", y, mask, got[mask], p)
			}
		}
	}
}

// A conduit group sharing both paths' first hops slashes achievable
// availability: the correlated model must report less class mass on
// the all-up combination than the independent model.
func TestCorrelationReducesAllUpMass(t *testing.T) {
	n := topo.Toy()
	dc1, _ := n.NodeByName("DC1")
	dc4, _ := n.NodeByName("DC4")
	tunnels := routing.YenKSP(n, dc1, dc4, 2)
	// Both paths' first hops (DC1->DC2 and DC1->DC3) share a conduit.
	var firstHops []topo.LinkID
	for _, t2 := range tunnels {
		firstHops = append(firstHops, t2.Links[0])
	}
	groups := []RiskGroup{{Name: "dc1-conduit", Links: firstHops, Prob: 0.01}}
	indep, err := classesFor(n, nil, tunnels, 2)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := classesFor(n, groups, tunnels, 2)
	if err != nil {
		t.Fatal(err)
	}
	allUpMass := func(cs []Class) float64 {
		for _, c := range cs {
			if c.AllUp(len(tunnels)) {
				return c.Prob
			}
		}
		return 0
	}
	if allUpMass(corr) >= allUpMass(indep) {
		t.Fatalf("correlated all-up %v >= independent %v", allUpMass(corr), allUpMass(indep))
	}
	// And the both-down class gains mass.
	bothDown := func(cs []Class) float64 {
		for _, c := range cs {
			if c.UpMask == 0 {
				return c.Prob
			}
		}
		return 0
	}
	if bothDown(corr) <= bothDown(indep) {
		t.Fatalf("correlated both-down %v <= independent %v", bothDown(corr), bothDown(indep))
	}
}
