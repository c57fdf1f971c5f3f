package te

import (
	"math"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/routing"
	"bate/internal/topo"
)

// fig2Input reproduces the §2.2 motivating example: user1 wants 6 Gbps
// at 99%, user2 wants 12 Gbps at 90%, both DC1->DC4.
func fig2Input(t *testing.T) *alloc.Input {
	t.Helper()
	n := topo.Toy()
	ts := routing.Compute(n, routing.KShortest, 2)
	dc1, _ := n.NodeByName("DC1")
	dc4, _ := n.NodeByName("DC4")
	u1 := &demand.Demand{ID: 0, Pairs: []demand.PairDemand{{Src: dc1, Dst: dc4, Bandwidth: 6000}}, Target: 0.99}
	u2 := &demand.Demand{ID: 1, Pairs: []demand.PairDemand{{Src: dc1, Dst: dc4, Bandwidth: 12000}}, Target: 0.90}
	return &alloc.Input{Net: n, Tunnels: ts, Demands: []*demand.Demand{u1, u2}}
}

func allUp(routing.Tunnel) bool { return true }

func TestFFCFig2Conservative(t *testing.T) {
	in := fig2Input(t)
	a, err := FFC(in, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCapacity(in, 1e-3); err != nil {
		t.Fatal(err)
	}
	// FFC's guaranteed bandwidth is capped by what survives any single
	// link failure: user1 gets ≈ 3.33 Gbps, user2 ≈ 6.67 Gbps, each
	// spread evenly over both paths (the Fig. 2(b) numbers: 1.67 and
	// 3.33 Gbps per path).
	u1, u2 := in.Demands[0], in.Demands[1]
	got1 := a.Delivered(in, u1, 0, allUp)
	got2 := a.Delivered(in, u2, 0, allUp)
	if math.Abs(got1-3333) > 40 || math.Abs(got2-6667) > 40 {
		t.Fatalf("FFC granted %v/%v, want ≈ 3333/6667", got1, got2)
	}
	for ti := range in.TunnelsFor(u1, 0) {
		if math.Abs(a[u1.ID][0][ti]-1667) > 40 {
			t.Fatalf("u1 tunnel %d carries %v, want ≈ 1667", ti, a[u1.ID][0][ti])
		}
		if math.Abs(a[u2.ID][0][ti]-3333) > 40 {
			t.Fatalf("u2 tunnel %d carries %v, want ≈ 3333", ti, a[u2.ID][0][ti])
		}
	}
	// Neither demand's bandwidth target is ever fully met — FFC is
	// conservative (the §2.2 critique; Fig. 9 shows demand-level
	// availability 0 for under-allocated FFC demands).
	for _, d := range in.Demands {
		ok, err := alloc.Satisfies(in, a, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("demand %d should not meet its BA target under FFC", d.ID)
		}
	}
}

func TestTEAVARFig2GrantsAll(t *testing.T) {
	in := fig2Input(t)
	a, err := TEAVAR(in, 0.90, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCapacity(in, 1e-3); err != nil {
		t.Fatal(err)
	}
	// With a single 90% level, capacity suffices to grant both users
	// their full bandwidth (Fig. 2(c)).
	for _, d := range in.Demands {
		if got := a.Delivered(in, d, 0, allUp); got < d.Pairs[0].Bandwidth-1 {
			t.Fatalf("demand %d delivered %v, want %v", d.ID, got, d.Pairs[0].Bandwidth)
		}
	}
}

func TestTEAVARBetaValidation(t *testing.T) {
	in := fig2Input(t)
	if _, err := TEAVAR(in, 1.0, 2); err == nil {
		t.Fatal("expected beta validation error")
	}
	if _, err := TEAVAR(in, -0.1, 2); err == nil {
		t.Fatal("expected beta validation error")
	}
}

func TestTEAVARHighBetaStillGrantsThroughput(t *testing.T) {
	// TEAVAR trades availability for utilization: even at β = 0.999 it
	// keeps the throughput-maximal grants (stage 1) and only then
	// pushes availability toward β — the one-size-fits-all behaviour
	// that lets high-β demands miss their own targets.
	in := fig2Input(t)
	a, err := TEAVAR(in, 0.999, 2)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, d := range in.Demands {
		total += math.Min(a.Delivered(in, d, 0, allUp), d.Pairs[0].Bandwidth)
	}
	if total < 18000-1 {
		t.Fatalf("granted %v, want full 18000 despite high beta", total)
	}
	// The stage-2 availability push places user1 (the smaller demand)
	// on a mix that keeps both demands' availability at least at the
	// two-path level.
	for _, d := range in.Demands {
		av, err := alloc.AchievedAvailability(in, a, d, 2)
		if err != nil {
			t.Fatal(err)
		}
		if av < 0.9 {
			t.Fatalf("demand %d availability %v after the β push", d.ID, av)
		}
	}
}

func TestSWANMaxThroughput(t *testing.T) {
	in := fig2Input(t)
	a, err := SWAN(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCapacity(in, 1e-3); err != nil {
		t.Fatal(err)
	}
	// Total demand 18 Gbps fits in the 20 Gbps cut; SWAN should
	// deliver it all.
	total := 0.0
	for _, d := range in.Demands {
		total += math.Min(a.Delivered(in, d, 0, allUp), d.Pairs[0].Bandwidth)
	}
	if total < 18000-1 {
		t.Fatalf("SWAN throughput %v, want 18000", total)
	}
}

func TestSWANSaturatesCut(t *testing.T) {
	// Demand exceeding the 20 Gbps cut: SWAN should deliver exactly
	// the cut.
	n := topo.Toy()
	ts := routing.Compute(n, routing.KShortest, 2)
	dc1, _ := n.NodeByName("DC1")
	dc4, _ := n.NodeByName("DC4")
	d := &demand.Demand{ID: 0, Pairs: []demand.PairDemand{{Src: dc1, Dst: dc4, Bandwidth: 50000}}}
	in := &alloc.Input{Net: n, Tunnels: ts, Demands: []*demand.Demand{d}}
	a, err := SWAN(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Delivered(in, d, 0, allUp); math.Abs(got-20000) > 1 {
		t.Fatalf("delivered %v, want 20000", got)
	}
}

func TestB4MaxMinFairness(t *testing.T) {
	// Two equal demands over one shared 10 Gbps bottleneck: each must
	// get half.
	n := topo.NewBuilder("line").
		AddLink("a", "b", 10000, 0.001).
		MustBuild()
	ts := routing.Compute(n, routing.KShortest, 2)
	a0, _ := n.NodeByName("a")
	b0, _ := n.NodeByName("b")
	d1 := &demand.Demand{ID: 0, Pairs: []demand.PairDemand{{Src: a0, Dst: b0, Bandwidth: 8000}}}
	d2 := &demand.Demand{ID: 1, Pairs: []demand.PairDemand{{Src: a0, Dst: b0, Bandwidth: 8000}}}
	in := &alloc.Input{Net: n, Tunnels: ts, Demands: []*demand.Demand{d1, d2}}
	a, err := B4(in)
	if err != nil {
		t.Fatal(err)
	}
	g1 := a.Delivered(in, d1, 0, allUp)
	g2 := a.Delivered(in, d2, 0, allUp)
	if math.Abs(g1-5000) > 10 || math.Abs(g2-5000) > 10 {
		t.Fatalf("B4 shares %v/%v, want 5000/5000", g1, g2)
	}
}

func TestB4UnevenDemands(t *testing.T) {
	// Small demand (2 Gbps) and big demand (20 Gbps) on a 10 Gbps
	// bottleneck: max-min gives the small one all of its demand, the
	// big one the rest.
	n := topo.NewBuilder("line").
		AddLink("a", "b", 10000, 0.001).
		MustBuild()
	ts := routing.Compute(n, routing.KShortest, 2)
	a0, _ := n.NodeByName("a")
	b0, _ := n.NodeByName("b")
	d1 := &demand.Demand{ID: 0, Pairs: []demand.PairDemand{{Src: a0, Dst: b0, Bandwidth: 2000}}}
	d2 := &demand.Demand{ID: 1, Pairs: []demand.PairDemand{{Src: a0, Dst: b0, Bandwidth: 20000}}}
	in := &alloc.Input{Net: n, Tunnels: ts, Demands: []*demand.Demand{d1, d2}}
	a, err := B4(in)
	if err != nil {
		t.Fatal(err)
	}
	g1 := a.Delivered(in, d1, 0, allUp)
	g2 := a.Delivered(in, d2, 0, allUp)
	if g1 < 2000-10 {
		t.Fatalf("small demand got %v, want 2000", g1)
	}
	if g2 < 8000-10 {
		t.Fatalf("big demand got %v, want ≥ 8000", g2)
	}
}

func TestSMORENoWorseThroughputLowerUtil(t *testing.T) {
	in := fig2Input(t)
	swan, err := SWAN(in)
	if err != nil {
		t.Fatal(err)
	}
	smore, err := SMORE(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := smore.CheckCapacity(in, 1e-3); err != nil {
		t.Fatal(err)
	}
	tput := func(a alloc.Allocation) float64 {
		sum := 0.0
		for _, d := range in.Demands {
			sum += math.Min(a.Delivered(in, d, 0, allUp), d.Pairs[0].Bandwidth)
		}
		return sum
	}
	if tput(smore) < tput(swan)-1 {
		t.Fatalf("SMORE throughput %v < SWAN %v", tput(smore), tput(swan))
	}
	if smore.MaxUtilization(in) > swan.MaxUtilization(in)+1e-6 {
		t.Fatalf("SMORE max util %v > SWAN %v", smore.MaxUtilization(in), swan.MaxUtilization(in))
	}
}

func TestFFCValidation(t *testing.T) {
	in := fig2Input(t)
	if _, err := FFC(in, -1); err == nil {
		t.Fatal("expected k validation error")
	}
}

func TestFFCZeroFailures(t *testing.T) {
	// k=0 degenerates to throughput maximization with even scaling.
	in := fig2Input(t)
	a, err := FFC(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range in.Demands {
		if got := a.Delivered(in, d, 0, allUp); got < d.Pairs[0].Bandwidth-1 {
			t.Fatalf("k=0 demand %d delivered %v", d.ID, got)
		}
	}
}

func TestSchemesOnTestbed(t *testing.T) {
	// Smoke test: every scheme allocates within capacity on the 6-DC
	// testbed with the Table 3 demand trio.
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	name := func(s string) topo.NodeID {
		id, _ := n.NodeByName(s)
		return id
	}
	demands := []*demand.Demand{
		{ID: 0, Pairs: []demand.PairDemand{{Src: name("DC1"), Dst: name("DC3"), Bandwidth: 1000}}, Target: 0.995},
		{ID: 1, Pairs: []demand.PairDemand{{Src: name("DC1"), Dst: name("DC4"), Bandwidth: 500}}, Target: 0.999},
		{ID: 2, Pairs: []demand.PairDemand{{Src: name("DC1"), Dst: name("DC5"), Bandwidth: 1500}}, Target: 0.95},
	}
	in := &alloc.Input{Net: n, Tunnels: ts, Demands: demands}
	schemes := map[string]func() (alloc.Allocation, error){
		NameFFC:    func() (alloc.Allocation, error) { return FFC(in, 1) },
		NameTEAVAR: func() (alloc.Allocation, error) { return TEAVAR(in, 0.999, 2) },
		NameSWAN:   func() (alloc.Allocation, error) { return SWAN(in) },
		NameSMORE:  func() (alloc.Allocation, error) { return SMORE(in) },
		NameB4:     func() (alloc.Allocation, error) { return B4(in) },
	}
	for name, f := range schemes {
		a, err := f()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := a.CheckCapacity(in, 1e-3); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Total() <= 0 {
			t.Fatalf("%s: empty allocation", name)
		}
	}
}
