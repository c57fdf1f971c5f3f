package alloc

import (
	"math"
	"testing"

	"bate/internal/demand"
	"bate/internal/routing"
	"bate/internal/topo"
)

// toyInput builds the Fig. 2 setting: two demands DC1->DC4 over the
// two 2-hop tunnels.
func toyInput(t *testing.T) (*Input, *demand.Demand, *demand.Demand) {
	t.Helper()
	n := topo.Toy()
	ts := routing.Compute(n, routing.KShortest, 2)
	dc1, _ := n.NodeByName("DC1")
	dc4, _ := n.NodeByName("DC4")
	u1 := &demand.Demand{ID: 0, Pairs: []demand.PairDemand{{Src: dc1, Dst: dc4, Bandwidth: 6000}}, Target: 0.99, Charge: 6000, RefundFrac: 0.1}
	u2 := &demand.Demand{ID: 1, Pairs: []demand.PairDemand{{Src: dc1, Dst: dc4, Bandwidth: 12000}}, Target: 0.90, Charge: 12000, RefundFrac: 0.1}
	return &Input{Net: n, Tunnels: ts, Demands: []*demand.Demand{u1, u2}}, u1, u2
}

// tunnelVia returns the index of u's tunnel whose first hop goes to
// the named node.
func tunnelVia(t *testing.T, in *Input, d *demand.Demand, via string) int {
	t.Helper()
	id, _ := in.Net.NodeByName(via)
	for ti, tun := range in.TunnelsFor(d, 0) {
		if in.Net.Link(tun.Links[0]).Dst == id {
			return ti
		}
	}
	t.Fatalf("no tunnel via %s", via)
	return -1
}

func TestAllocationAccounting(t *testing.T) {
	in, u1, u2 := toyInput(t)
	a := New(in)
	via3 := tunnelVia(t, in, u1, "DC3")
	via2 := tunnelVia(t, in, u2, "DC2")
	a[u1.ID][0][via3] = 6000
	a[u2.ID][0][via2] = 10000
	a[u2.ID][0][1-via2] = 2000

	if got := a.Total(); got != 18000 {
		t.Fatalf("Total = %v", got)
	}
	if got := a.AllocatedFor(u2, 0); got != 12000 {
		t.Fatalf("AllocatedFor(u2) = %v", got)
	}
	allUp := func(routing.Tunnel) bool { return true }
	if got := a.Delivered(in, u1, 0, allUp); got != 6000 {
		t.Fatalf("Delivered = %v", got)
	}
	if got := a.Ratio(in, u2, 0, allUp); math.Abs(got-1) > 1e-9 {
		t.Fatalf("Ratio = %v", got)
	}
	if err := a.CheckCapacity(in, 1e-6); err != nil {
		t.Fatal(err)
	}
	loads := a.LinkLoads(in)
	// DC1->DC3 and DC3->DC4 carry u1's 6000 plus u2's 2000.
	dc1, _ := in.Net.NodeByName("DC1")
	dc3, _ := in.Net.NodeByName("DC3")
	l, _ := in.Net.LinkBetween(dc1, dc3)
	if loads[l.ID] != 8000 {
		t.Fatalf("load on DC1->DC3 = %v, want 8000", loads[l.ID])
	}
	if u := a.MaxUtilization(in); math.Abs(u-1.0) > 1e-9 {
		t.Fatalf("MaxUtilization = %v, want 1.0 (DC1->DC2 full)", u)
	}
	if m := a.MeanUtilization(in); m <= 0 || m >= 1 {
		t.Fatalf("MeanUtilization = %v", m)
	}
}

func TestCheckCapacityOverload(t *testing.T) {
	in, u1, _ := toyInput(t)
	a := New(in)
	a[u1.ID][0][0] = 20000
	if err := a.CheckCapacity(in, 1e-6); err == nil {
		t.Fatal("expected overload error")
	}
}

func TestAchievedAvailabilityFig2(t *testing.T) {
	in, u1, u2 := toyInput(t)
	a := New(in)
	via3u1 := tunnelVia(t, in, u1, "DC3")
	via2u2 := tunnelVia(t, in, u2, "DC2")
	// The Fig. 2(d) BATE allocation.
	a[u1.ID][0][via3u1] = 6000
	a[u2.ID][0][via2u2] = 10000
	a[u2.ID][0][1-via2u2] = 2000

	// u1 entirely on the DC3 path: availability ≈ 0.999 · 0.999999.
	av1, err := AchievedAvailability(in, a, u1, 3)
	if err != nil {
		t.Fatal(err)
	}
	want1 := 0.999 * 0.999999
	if math.Abs(av1-want1) > 1e-4 {
		t.Fatalf("u1 availability = %v, want ≈ %v", av1, want1)
	}
	// u2 needs both paths: availability ≈ product of all four links.
	av2, err := AchievedAvailability(in, a, u2, 3)
	if err != nil {
		t.Fatal(err)
	}
	want2 := 0.96 * 0.999999 * 0.999 * 0.999999
	if math.Abs(av2-want2) > 1e-4 {
		t.Fatalf("u2 availability = %v, want ≈ %v", av2, want2)
	}
	// Both targets met (the Fig. 2(d) claim).
	for _, d := range []*demand.Demand{u1, u2} {
		ok, err := Satisfies(in, a, d, 3)
		if err != nil || !ok {
			t.Fatalf("demand %d not satisfied: %v", d.ID, err)
		}
	}
}

func TestSatisfiesBestEffort(t *testing.T) {
	in, u1, _ := toyInput(t)
	u1.Target = 0
	a := New(in) // nothing allocated
	ok, err := Satisfies(in, a, u1, 2)
	if err != nil || !ok {
		t.Fatal("best-effort demand should always be satisfied")
	}
}

func TestCloneIndependent(t *testing.T) {
	in, u1, _ := toyInput(t)
	a := New(in)
	a[u1.ID][0][0] = 5
	b := a.Clone()
	b[u1.ID][0][0] = 7
	if a[u1.ID][0][0] != 5 {
		t.Fatal("Clone shares storage")
	}
}

func TestResidualCapacities(t *testing.T) {
	in, u1, _ := toyInput(t)
	a := New(in)
	via3 := tunnelVia(t, in, u1, "DC3")
	a[u1.ID][0][via3] = 4000
	res := a.ResidualCapacities(in)
	dc1, _ := in.Net.NodeByName("DC1")
	dc3, _ := in.Net.NodeByName("DC3")
	l, _ := in.Net.LinkBetween(dc1, dc3)
	if res[l.ID] != 6000 {
		t.Fatalf("residual = %v, want 6000", res[l.ID])
	}
	// A drained link has no residual capacity, loaded or not; the others
	// keep theirs.
	in.Drained = []topo.LinkID{l.ID}
	drained := a.ResidualCapacities(in)
	for _, e := range in.Net.Links() {
		want := res[e.ID]
		if e.ID == l.ID {
			want = 0
		}
		if drained[e.ID] != want {
			t.Fatalf("drained input: link %d residual = %v, want %v", e.ID, drained[e.ID], want)
		}
	}
}

func TestDeliveredUnderFailure(t *testing.T) {
	in, _, u2 := toyInput(t)
	a := New(in)
	via2 := tunnelVia(t, in, u2, "DC2")
	a[u2.ID][0][via2] = 10000
	a[u2.ID][0][1-via2] = 2000
	dc1, _ := in.Net.NodeByName("DC1")
	dc2, _ := in.Net.NodeByName("DC2")
	failedLink, _ := in.Net.LinkBetween(dc1, dc2)
	up := func(tn routing.Tunnel) bool { return !tn.Uses(failedLink.ID) }
	if got := a.Delivered(in, u2, 0, up); got != 2000 {
		t.Fatalf("Delivered under DC1->DC2 failure = %v, want 2000", got)
	}
}
