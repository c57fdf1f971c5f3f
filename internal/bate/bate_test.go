package bate

import (
	"math"
	"math/rand"
	"os"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/metrics"
	"bate/internal/routing"
	"bate/internal/scenario"
	"bate/internal/topo"
)

func fig2Input(t *testing.T) *alloc.Input {
	t.Helper()
	n := topo.Toy()
	ts := routing.Compute(n, routing.KShortest, 2)
	dc1, _ := n.NodeByName("DC1")
	dc4, _ := n.NodeByName("DC4")
	u1 := &demand.Demand{ID: 0, Pairs: []demand.PairDemand{{Src: dc1, Dst: dc4, Bandwidth: 6000}}, Target: 0.99, Charge: 6000, RefundFrac: 0.1}
	u2 := &demand.Demand{ID: 1, Pairs: []demand.PairDemand{{Src: dc1, Dst: dc4, Bandwidth: 12000}}, Target: 0.90, Charge: 12000, RefundFrac: 0.1}
	return &alloc.Input{Net: n, Tunnels: ts, Demands: []*demand.Demand{u1, u2}}
}

func testbedInput(t *testing.T, demands []*demand.Demand) *alloc.Input {
	t.Helper()
	n := topo.Testbed()
	return &alloc.Input{Net: n, Tunnels: routing.Compute(n, routing.KShortest, 4), Demands: demands}
}

func testbedDemand(t *testing.T, in *alloc.Input, id int, src, dst string, bw, target float64) *demand.Demand {
	t.Helper()
	s, ok := in.Net.NodeByName(src)
	if !ok {
		t.Fatalf("node %s", src)
	}
	d, _ := in.Net.NodeByName(dst)
	return &demand.Demand{
		ID: id, Pairs: []demand.PairDemand{{Src: s, Dst: d, Bandwidth: bw}},
		Target: target, Charge: bw, RefundFrac: 0.1,
	}
}

func TestScheduleFig2(t *testing.T) {
	in := fig2Input(t)
	a, stats, err := Schedule(in, ScheduleOptions{MaxFail: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCapacity(in, 1e-3); err != nil {
		t.Fatal(err)
	}
	if stats.Variables == 0 || stats.Constraints == 0 {
		t.Fatalf("stats empty: %+v", stats)
	}
	// Both availability targets are met (the Fig. 2(d) outcome).
	for _, d := range in.Demands {
		av, err := alloc.AchievedAvailability(in, a, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		if av < d.Target {
			t.Fatalf("demand %d achieved %v < target %v", d.ID, av, d.Target)
		}
		if got := a.AllocatedFor(d, 0); got < d.Pairs[0].Bandwidth-1 {
			t.Fatalf("demand %d allocated %v < %v (Eq. 1)", d.ID, got, d.Pairs[0].Bandwidth)
		}
	}
	// Minimum-resource objective: exactly the demanded 18 Gbps.
	if math.Abs(a.Total()-18000) > 10 {
		t.Fatalf("total allocation %v, want 18000", a.Total())
	}
	// User1 must ride the reliable DC3 path exclusively: the DC2 path
	// alone cannot reach 99%.
	u1 := in.Demands[0]
	for ti, tun := range in.TunnelsFor(u1, 0) {
		dc2, _ := in.Net.NodeByName("DC2")
		if in.Net.Link(tun.Links[0]).Dst == dc2 && a[u1.ID][0][ti] > 1 {
			t.Fatalf("u1 allocated %v on the flaky DC2 path", a[u1.ID][0][ti])
		}
	}
}

func TestScheduleModesAgree(t *testing.T) {
	in := fig2Input(t)
	agg, _, err := Schedule(in, ScheduleOptions{MaxFail: 2, Mode: Aggregated})
	if err != nil {
		t.Fatal(err)
	}
	enum, _, err := Schedule(in, ScheduleOptions{MaxFail: 2, Mode: Enumerated})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(agg.Total()-enum.Total()) > 1 {
		t.Fatalf("aggregated %v != enumerated %v", agg.Total(), enum.Total())
	}
}

func TestScheduleInfeasibleBandwidth(t *testing.T) {
	in := fig2Input(t)
	in.Demands[1].Pairs[0].Bandwidth = 50000 // exceeds the 20 Gbps cut
	_, _, err := Schedule(in, ScheduleOptions{MaxFail: 2})
	if err == nil {
		t.Fatal("expected infeasibility")
	}
}

func TestScheduleInfeasibleAvailability(t *testing.T) {
	// A target above what any tunnel combination can reach.
	in := fig2Input(t)
	in.Demands[0].Target = 0.99999999
	_, _, err := Schedule(in, ScheduleOptions{MaxFail: 3})
	if err == nil {
		t.Fatal("expected availability infeasibility")
	}
}

func TestScheduleBestEffort(t *testing.T) {
	in := fig2Input(t)
	in.Demands[0].Target = 0
	in.Demands[1].Target = 0
	a, _, err := Schedule(in, ScheduleOptions{MaxFail: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range in.Demands {
		if got := a.AllocatedFor(d, 0); got < d.Pairs[0].Bandwidth-1 {
			t.Fatalf("best-effort demand %d allocated %v", d.ID, got)
		}
	}
}

func TestAdmitFixed(t *testing.T) {
	in := testbedInput(t, nil)
	empty := alloc.New(in)
	d := testbedDemand(t, in, 0, "DC1", "DC3", 500, 0.99)
	res, err := AdmitFixed(in, empty, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted || res.Method != MethodFixed {
		t.Fatalf("empty network should admit: %+v", res)
	}
	if len(res.NewAlloc) != 1 {
		t.Fatal("missing allocation")
	}
	sum := 0.0
	for _, f := range res.NewAlloc[0] {
		sum += f
	}
	if sum < 500-1 {
		t.Fatalf("allocated %v < 500", sum)
	}
	// Oversized demand is rejected.
	big := testbedDemand(t, in, 1, "DC1", "DC3", 10000, 0.99)
	res, err = AdmitFixed(in, empty, big, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("10 Gbps demand cannot fit 1 Gbps links")
	}
}

func TestConjectureBasic(t *testing.T) {
	in := testbedInput(t, nil)
	small := []*demand.Demand{
		testbedDemand(t, in, 0, "DC1", "DC3", 300, 0.95),
		testbedDemand(t, in, 1, "DC1", "DC4", 200, 0.95),
	}
	if !Conjecture(in, small) {
		t.Fatal("small demands should pass the conjecture")
	}
	huge := []*demand.Demand{
		testbedDemand(t, in, 0, "DC1", "DC3", 5000, 0.95),
	}
	if Conjecture(in, huge) {
		t.Fatal("5 Gbps cannot fit")
	}
	// Unreachable availability: a target above every path product.
	strict := []*demand.Demand{
		testbedDemand(t, in, 0, "DC1", "DC4", 3000, 0.999999999),
	}
	if Conjecture(in, strict) {
		t.Fatal("unreachable availability should fail the conjecture")
	}
}

// Theorem 1: if the conjecture admits a demand set, a satisfying
// allocation exists — i.e. the scheduling LP is feasible. We verify on
// random demand sets. (The LP's availability relaxation is weaker than
// full satisfaction, so LP feasibility is the right check: the paper's
// scheduler is exactly this LP.)
func TestConjectureNoFalsePositives(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	in0 := testbedInput(t, nil)
	targets := []float64{0.9, 0.95, 0.99, 0.999}
	pairs := in0.Net.Pairs()
	accepted, tested := 0, 0
	for trial := 0; trial < 40; trial++ {
		nd := 1 + rng.Intn(6)
		demands := make([]*demand.Demand, nd)
		for i := range demands {
			p := pairs[rng.Intn(len(pairs))]
			demands[i] = &demand.Demand{
				ID:     i,
				Pairs:  []demand.PairDemand{{Src: p[0], Dst: p[1], Bandwidth: 50 + rng.Float64()*400}},
				Target: targets[rng.Intn(len(targets))],
			}
		}
		in := &alloc.Input{Net: in0.Net, Tunnels: in0.Tunnels, Demands: demands}
		tested++
		if !Conjecture(in, demands) {
			continue
		}
		accepted++
		if _, _, err := Schedule(in, ScheduleOptions{MaxFail: 2}); err != nil {
			t.Fatalf("trial %d: conjecture admitted but scheduling infeasible: %v", trial, err)
		}
	}
	if accepted == 0 {
		t.Fatalf("conjecture accepted nothing in %d trials; test is vacuous", tested)
	}
}

func TestAdmitThreeSteps(t *testing.T) {
	in := testbedInput(t, nil)
	d0 := testbedDemand(t, in, 0, "DC1", "DC3", 400, 0.99)
	res, err := Admit(in, alloc.New(in), nil, d0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted || res.Method != MethodFixed {
		t.Fatalf("step 1 should admit: %+v", res)
	}
	// Reject: hopeless demand.
	dBad := testbedDemand(t, in, 1, "DC1", "DC3", 9999, 0.99)
	res, err = Admit(in, alloc.New(in), nil, dBad, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted || res.Method != MethodRejected {
		t.Fatalf("step 3 should reject: %+v", res)
	}
}

func TestAdmitConjectureStep(t *testing.T) {
	// Occupy the network with a deliberately wasteful fixed allocation
	// so step (1) fails but a global reshuffle (step 2) succeeds.
	in0 := testbedInput(t, nil)
	d0 := testbedDemand(t, in0, 0, "DC1", "DC3", 600, 0.95)
	in := testbedInput(t, []*demand.Demand{d0})
	wasteful := alloc.New(in)
	// Spread d0 over every tunnel, loading all DC1-adjacent links.
	for ti, tun := range in.TunnelsFor(d0, 0) {
		_ = tun
		wasteful[d0.ID][0][ti] = 600
	}
	dNew := testbedDemand(t, in, 1, "DC1", "DC4", 700, 0.95)
	res, err := Admit(in, wasteful, []*demand.Demand{d0}, dNew, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatalf("expected admission: %+v", res)
	}
}

func TestAdmitOptimal(t *testing.T) {
	in := testbedInput(t, nil)
	d0 := testbedDemand(t, in, 0, "DC1", "DC3", 400, 0.99)
	res, a, err := AdmitOptimal(in, nil, d0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted || res.Method != MethodOptimal {
		t.Fatalf("optimal should admit: %+v", res)
	}
	if a == nil || a.AllocatedFor(d0, 0) < 400-1 {
		t.Fatal("optimal admission must allocate the demand")
	}
	// Oversized: rejected.
	dBad := testbedDemand(t, in, 1, "DC1", "DC3", 9999, 0.99)
	res, _, err = AdmitOptimal(in, nil, dBad, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("oversized demand admitted")
	}
}

// The optimal admission dominates the greedy conjecture: whenever the
// conjecture says yes, the MILP must also admit (Theorem 1 guarantees
// an allocation exists).
func TestOptimalDominatesConjecture(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in0 := testbedInput(t, nil)
	pairs := in0.Net.Pairs()
	targets := []float64{0.9, 0.95, 0.99}
	checked := 0
	for trial := 0; trial < 12; trial++ {
		var admitted []*demand.Demand
		nd := 1 + rng.Intn(3)
		for i := 0; i < nd; i++ {
			p := pairs[rng.Intn(len(pairs))]
			admitted = append(admitted, &demand.Demand{
				ID:     i,
				Pairs:  []demand.PairDemand{{Src: p[0], Dst: p[1], Bandwidth: 50 + rng.Float64()*200}},
				Target: targets[rng.Intn(len(targets))],
			})
		}
		p := pairs[rng.Intn(len(pairs))]
		dNew := &demand.Demand{
			ID:     nd,
			Pairs:  []demand.PairDemand{{Src: p[0], Dst: p[1], Bandwidth: 50 + rng.Float64()*200}},
			Target: targets[rng.Intn(len(targets))],
		}
		all := append(append([]*demand.Demand(nil), admitted...), dNew)
		in := &alloc.Input{Net: in0.Net, Tunnels: in0.Tunnels, Demands: all}
		if !Conjecture(in, all) {
			continue
		}
		checked++
		res, _, err := AdmitOptimal(in, admitted, dNew, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !res.Admitted {
			t.Fatalf("trial %d: conjecture admitted but optimal rejected", trial)
		}
	}
	if checked == 0 {
		t.Fatal("no trials exercised the dominance check")
	}
}

func TestRecoveryOptimalVsGreedy(t *testing.T) {
	in := testbedInput(t, nil)
	demands := []*demand.Demand{
		testbedDemand(t, in, 0, "DC1", "DC3", 600, 0.99),
		testbedDemand(t, in, 1, "DC1", "DC4", 500, 0.999),
		testbedDemand(t, in, 2, "DC1", "DC5", 800, 0.95),
	}
	in.Demands = demands
	// Fail L4 (the direct DC1-DC4 fiber, both directions).
	dc1, _ := in.Net.NodeByName("DC1")
	dc4, _ := in.Net.NodeByName("DC4")
	l1, _ := in.Net.LinkBetween(dc1, dc4)
	l2, _ := in.Net.LinkBetween(dc4, dc1)
	failed := []topo.LinkID{l1.ID, l2.ID}

	opt, err := RecoverOptimal(in, failed)
	if err != nil {
		t.Fatal(err)
	}
	grd, err := RecoverGreedy(in, failed)
	if err != nil {
		t.Fatal(err)
	}
	if grd.Profit > opt.Profit+1e-6 {
		t.Fatalf("greedy profit %v exceeds optimal %v", grd.Profit, opt.Profit)
	}
	// Lemma 2: greedy is 2-optimal on the refundable part. With full
	// profits this is implied by profit >= optimal/2.
	if grd.Profit < opt.Profit/2-1e-6 {
		t.Fatalf("greedy profit %v below optimal/2 (%v)", grd.Profit, opt.Profit/2)
	}
	// Allocations must avoid failed links and respect capacity.
	for _, r := range []*RecoveryResult{opt, grd} {
		if err := r.Alloc.CheckCapacity(in, 1e-3); err != nil {
			t.Fatal(err)
		}
		loads := r.Alloc.LinkLoads(in)
		for _, e := range failed {
			if loads[e] > 1e-6 {
				t.Fatalf("allocation uses failed link %d", e)
			}
		}
	}
	// Every demand in FullProfit actually receives its bandwidth on
	// surviving tunnels.
	down := map[topo.LinkID]bool{l1.ID: true, l2.ID: true}
	up := func(tn routing.Tunnel) bool {
		for _, e := range tn.Links {
			if down[e] {
				return false
			}
		}
		return true
	}
	for _, r := range []*RecoveryResult{opt, grd} {
		for _, d := range demands {
			if r.FullProfit[d.ID] {
				if got := r.Alloc.Delivered(in, d, 0, up); got < d.Pairs[0].Bandwidth-1 {
					t.Fatalf("demand %d in F but delivered only %v", d.ID, got)
				}
			}
		}
	}
}

// Property test for Lemma 2 across random recovery instances.
func TestRecoveryTwoApproxProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	in0 := testbedInput(t, nil)
	pairs := in0.Net.Pairs()
	for trial := 0; trial < 25; trial++ {
		nd := 1 + rng.Intn(5)
		demands := make([]*demand.Demand, nd)
		for i := range demands {
			p := pairs[rng.Intn(len(pairs))]
			bw := 100 + rng.Float64()*700
			demands[i] = &demand.Demand{
				ID:     i,
				Pairs:  []demand.PairDemand{{Src: p[0], Dst: p[1], Bandwidth: bw}},
				Charge: bw * (0.5 + rng.Float64()), RefundFrac: 0.1 + rng.Float64()*0.4,
			}
		}
		in := &alloc.Input{Net: in0.Net, Tunnels: in0.Tunnels, Demands: demands}
		link := topo.LinkID(rng.Intn(in.Net.NumLinks()))
		opt, err := RecoverOptimal(in, []topo.LinkID{link})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		grd, err := RecoverGreedy(in, []topo.LinkID{link})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if grd.Profit > opt.Profit+1e-6 {
			t.Fatalf("trial %d: greedy %v > optimal %v", trial, grd.Profit, opt.Profit)
		}
		// Lemma 2 bounds the refundable (recoverable) profit portion.
		baseline := 0.0
		for _, d := range demands {
			baseline += (1 - d.RefundFrac) * d.Charge
		}
		optGain := opt.Profit - baseline
		grdGain := grd.Profit - baseline
		if grdGain < optGain/2-1e-6 {
			t.Fatalf("trial %d: greedy gain %v < optimal gain/2 %v", trial, grdGain, optGain/2)
		}
	}
}

func TestBackups(t *testing.T) {
	in := testbedInput(t, nil)
	in.Demands = []*demand.Demand{
		testbedDemand(t, in, 0, "DC1", "DC3", 400, 0.99),
		testbedDemand(t, in, 1, "DC1", "DC5", 300, 0.95),
	}
	backups, err := PrecomputeBackups(in, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if backups.Len() != in.Net.NumLinks() {
		t.Fatalf("got %d backups, want %d", backups.Len(), in.Net.NumLinks())
	}
	for _, l := range in.Net.Links() {
		e := l.ID
		r, ok := backups.For([]topo.LinkID{e})
		if !ok {
			t.Fatalf("no backup for link %d", e)
		}
		loads := r.Alloc.LinkLoads(in)
		if loads[e] > 1e-6 {
			t.Fatalf("backup for link %d routes over it", e)
		}
	}
}

func TestScheduleDefaultsAndErrors(t *testing.T) {
	in := fig2Input(t)
	if _, _, err := Schedule(in, ScheduleOptions{Mode: ScheduleMode(9)}); err == nil {
		t.Fatal("expected unknown-mode error")
	}
	// Default MaxFail (2) applies when 0 given.
	if _, _, err := Schedule(in, ScheduleOptions{}); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverOptimalStatsPopulated(t *testing.T) {
	in := testbedInput(t, nil)
	in.Demands = []*demand.Demand{testbedDemand(t, in, 0, "DC1", "DC3", 400, 0.99)}
	r, err := RecoverOptimal(in, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.Nodes < 1 {
		t.Fatalf("nodes = %d", r.Nodes)
	}
	if !r.FullProfit[0] {
		t.Fatal("no-failure recovery should keep full profit")
	}
	if r.Profit != 400 {
		t.Fatalf("profit = %v, want 400", r.Profit)
	}
	_ = lp.Optimal
}

// The relaxation of Eq. 3-4 can certify availability fractionally
// that no allocation truly achieves; Harden must detect and repair it
// (or report infeasibility).
func TestHardenRepairsRelaxationGap(t *testing.T) {
	// Testbed with inflated failure probabilities so 99.99% targets
	// genuinely need multi-path redundancy.
	base := topo.Testbed()
	probs := make([]float64, base.NumLinks())
	for i := range probs {
		probs[i] = 0.002
	}
	n, err := base.WithFailProbs(probs)
	if err != nil {
		t.Fatal(err)
	}
	in := &alloc.Input{Net: n, Tunnels: routing.Compute(n, routing.KShortest, 4)}
	s, _ := n.NodeByName("DC1")
	d4, _ := n.NodeByName("DC4")
	in.Demands = []*demand.Demand{{
		ID: 0, Pairs: []demand.PairDemand{{Src: s, Dst: d4, Bandwidth: 300}}, Target: 0.9999,
	}}
	opts := ScheduleOptions{MaxFail: 2}
	a, err := ScheduleHard(in, opts)
	if err != nil {
		t.Fatalf("ScheduleHard: %v", err)
	}
	ok, err := alloc.Satisfies(in, a, in.Demands[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		av, _ := alloc.AchievedAvailability(in, a, in.Demands[0], 2)
		t.Fatalf("hardened allocation still unsatisfied: achieved %v", av)
	}
	if err := a.CheckCapacity(in, 1e-3); err != nil {
		t.Fatal(err)
	}
}

// TestHardenResolvesOnRevisedEngine: the controller calls Harden with a
// zero Engine while holding its lock; the moment one demand is weak the
// whole book is re-solved, and that solve must run on the sparse
// revised engine, as Scheduler's rounds do — never on the dense tableau.
func TestHardenResolvesOnRevisedEngine(t *testing.T) {
	if v := os.Getenv("LP_CROSSCHECK"); v != "" && v != "0" {
		t.Skip("LP_CROSSCHECK runs the dense engine beside every solve")
	}
	// Failure probabilities inflated as in TestHardenRepairsRelaxationGap.
	base := topo.Testbed()
	probs := make([]float64, base.NumLinks())
	for i := range probs {
		probs[i] = 0.002
	}
	n, err := base.WithFailProbs(probs)
	if err != nil {
		t.Fatal(err)
	}
	in := &alloc.Input{Net: n, Tunnels: routing.Compute(n, routing.KShortest, 4)}
	in.Demands = []*demand.Demand{
		testbedDemand(t, in, 0, "DC1", "DC4", 300, 0.9999),
		testbedDemand(t, in, 1, "DC2", "DC6", 200, 0.9),
	}
	// Everything on each pair's first tunnel: feasible, but a single
	// path cannot carry a 0.9999 target, so Harden has to re-solve.
	weak := alloc.New(in)
	for _, d := range in.Demands {
		weak[d.ID][0][0] = d.Pairs[0].Bandwidth
	}
	before := metrics.Snapshot()
	hardened, err := Harden(in, ScheduleOptions{MaxFail: 2}, weak)
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.Snapshot()
	if hardened.Total() == weak.Total() {
		t.Fatal("Harden kept the single-path allocation: no re-solve happened")
	}
	if d := after["lp.pivots_dense"] - before["lp.pivots_dense"]; d != 0 {
		t.Fatalf("hardening re-solve spent %d pivots on the dense tableau", d)
	}
	if d := after["lp.pivots_revised"] - before["lp.pivots_revised"]; d == 0 {
		t.Fatal("hardening re-solve spent no pivots on the revised engine")
	}
	for _, d := range in.Demands {
		if ok, err := alloc.Satisfies(in, hardened, d, 2); err != nil || !ok {
			t.Fatalf("demand %d unsatisfied after hardening (err %v)", d.ID, err)
		}
	}
}

func TestHardenNoopWhenSatisfied(t *testing.T) {
	in := fig2Input(t)
	opts := ScheduleOptions{MaxFail: 2}
	a, _, err := Schedule(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	h, err := Harden(in, opts, a)
	if err != nil {
		t.Fatal(err)
	}
	if h.Total() != a.Total() {
		t.Fatalf("harden changed a satisfying allocation: %v -> %v", a.Total(), h.Total())
	}
}

func TestHardenInfeasibleTarget(t *testing.T) {
	// A target no class mass under y=1 can reach must fail to harden.
	base := topo.Testbed()
	probs := make([]float64, base.NumLinks())
	for i := range probs {
		probs[i] = 0.01
	}
	n, err := base.WithFailProbs(probs)
	if err != nil {
		t.Fatal(err)
	}
	in := &alloc.Input{Net: n, Tunnels: routing.Compute(n, routing.KShortest, 4)}
	s, _ := n.NodeByName("DC1")
	d4, _ := n.NodeByName("DC4")
	in.Demands = []*demand.Demand{{
		ID: 0, Pairs: []demand.PairDemand{{Src: s, Dst: d4, Bandwidth: 300}}, Target: 0.99999,
	}}
	// With 16 links at 1% each, P(<=1 failure) ≈ 0.989 < 0.99999:
	// uncoverable at y=1.
	if _, err := ScheduleHard(in, ScheduleOptions{MaxFail: 1}); err == nil {
		t.Fatal("expected hardening infeasibility")
	}
}

// Admission's hard check must refuse demands whose targets cannot
// truly be met, even when the relaxation would certify them.
func TestAdmitFixedHardGuarantee(t *testing.T) {
	base := topo.Testbed()
	probs := make([]float64, base.NumLinks())
	for i := range probs {
		probs[i] = 0.01
	}
	n, err := base.WithFailProbs(probs)
	if err != nil {
		t.Fatal(err)
	}
	in := &alloc.Input{Net: n, Tunnels: routing.Compute(n, routing.KShortest, 4)}
	s, _ := n.NodeByName("DC1")
	d4, _ := n.NodeByName("DC4")
	d := &demand.Demand{ID: 0, Pairs: []demand.PairDemand{{Src: s, Dst: d4, Bandwidth: 300}}, Target: 0.99999}
	res, err := AdmitFixed(in, alloc.New(in), d, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted {
		t.Fatal("uncertifiable demand admitted")
	}
	// When admitted, the first-time allocation truly satisfies.
	d2 := &demand.Demand{ID: 1, Pairs: []demand.PairDemand{{Src: s, Dst: d4, Bandwidth: 300}}, Target: 0.99}
	res, err = AdmitFixed(in, alloc.New(in), d2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatal("certifiable demand rejected")
	}
	trial := alloc.Allocation{d2.ID: res.NewAlloc}
	one := &alloc.Input{Net: n, Tunnels: in.Tunnels, Demands: []*demand.Demand{d2}}
	ok, err := alloc.Satisfies(one, trial, d2, 2)
	if err != nil || !ok {
		t.Fatalf("first-time allocation does not satisfy: %v", err)
	}
}

func TestLinkPrices(t *testing.T) {
	// Saturate the toy network (18 of 20 Gbps): the DC3-path links are
	// scarce for the 99% demand and must carry positive prices; with
	// slack elsewhere some links price at zero.
	in := fig2Input(t)
	prices, err := LinkPrices(in, ScheduleOptions{MaxFail: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(prices) == 0 {
		t.Fatal("no capacity rows priced")
	}
	anyPositive, anyZero := false, false
	for link, pr := range prices {
		if pr < -1e-6 {
			t.Fatalf("link %d priced negative: %v", link, pr)
		}
		if pr > 1e-6 {
			anyPositive = true
		} else {
			anyZero = true
		}
	}
	if !anyPositive || !anyZero {
		t.Fatalf("expected a mix of scarce and free links: %v", prices)
	}
	// Doubling every capacity removes scarcity: all prices zero.
	loose := in.Net.Scale(2)
	in2 := &alloc.Input{Net: loose, Tunnels: routing.Compute(loose, routing.KShortest, 2), Demands: in.Demands}
	prices2, err := LinkPrices(in2, ScheduleOptions{MaxFail: 2})
	if err != nil {
		t.Fatal(err)
	}
	for link, pr := range prices2 {
		if pr > 1e-6 {
			t.Fatalf("loose network link %d priced %v, want 0", link, pr)
		}
	}
}

func TestPrecomputeBackupsDepth2(t *testing.T) {
	in := testbedInput(t, nil)
	in.Demands = []*demand.Demand{
		testbedDemand(t, in, 0, "DC1", "DC3", 400, 0.99),
		testbedDemand(t, in, 1, "DC2", "DC6", 300, 0.95),
	}
	bs, err := PrecomputeBackups(in, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 16 singles + C(16,2)=120 pairs.
	if bs.Len() != 16+120 {
		t.Fatalf("got %d combos, want 136", bs.Len())
	}
	// Lookup order must not matter, and allocations avoid the down links.
	down := []topo.LinkID{7, 3}
	r, ok := bs.For(down)
	if !ok {
		t.Fatal("pair combo missing")
	}
	r2, ok2 := bs.For([]topo.LinkID{3, 7})
	if !ok2 || r2 != r {
		t.Fatal("lookup not order-invariant")
	}
	loads := r.Alloc.LinkLoads(in)
	for _, e := range down {
		if loads[e] > 1e-6 {
			t.Fatalf("backup routes over failed link %d", e)
		}
	}
	if _, ok := bs.For([]topo.LinkID{1, 2, 3}); ok {
		t.Fatal("depth-3 combo should be absent")
	}
	if _, ok := bs.For(nil); ok {
		t.Fatal("empty failure set should not resolve")
	}
}

func TestPrecomputeBackupsBudget(t *testing.T) {
	in := testbedInput(t, nil)
	in.Demands = []*demand.Demand{testbedDemand(t, in, 0, "DC1", "DC5", 200, 0.95)}
	bs, err := PrecomputeBackups(in, 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if bs.Len() != 20 {
		t.Fatalf("budgeted set has %d combos", bs.Len())
	}
	if bs.Skipped() != 136-20 {
		t.Fatalf("skipped = %d", bs.Skipped())
	}
	// The most probable failure — L4 (links 6/7 at 1%) — must be
	// within any sane budget.
	if _, ok := bs.For([]topo.LinkID{6}); !ok {
		t.Fatal("budget dropped the most probable failure")
	}
	// Both L4 directions together are the most probable pair.
	if _, ok := bs.For([]topo.LinkID{6, 7}); !ok {
		t.Fatal("budget dropped the most probable pair")
	}
}

// A demand spanning two s-d pairs (b_d is a vector, §3.1): the
// availability machinery must require BOTH pairs delivered in a
// qualified scenario.
func TestScheduleMultiPairDemand(t *testing.T) {
	in := testbedInput(t, nil)
	s1, _ := in.Net.NodeByName("DC1")
	d3, _ := in.Net.NodeByName("DC3")
	s2, _ := in.Net.NodeByName("DC2")
	d6, _ := in.Net.NodeByName("DC6")
	md := &demand.Demand{
		ID: 0,
		Pairs: []demand.PairDemand{
			{Src: s1, Dst: d3, Bandwidth: 300},
			{Src: s2, Dst: d6, Bandwidth: 200},
		},
		Target: 0.99, Charge: 500, RefundFrac: 0.1,
	}
	in.Demands = []*demand.Demand{md}
	a, err := ScheduleHard(in, ScheduleOptions{MaxFail: 2})
	if err != nil {
		t.Fatal(err)
	}
	for pi, pr := range md.Pairs {
		if got := a.AllocatedFor(md, pi); got < pr.Bandwidth-1 {
			t.Fatalf("pair %d allocated %v < %v", pi, got, pr.Bandwidth)
		}
	}
	av, err := alloc.AchievedAvailability(in, a, md, 2)
	if err != nil {
		t.Fatal(err)
	}
	if av < md.Target {
		t.Fatalf("multi-pair achieved %v < %v", av, md.Target)
	}
	// Dropping one pair's allocation must break satisfaction.
	broken := a.Clone()
	for ti := range broken[md.ID][1] {
		broken[md.ID][1][ti] = 0
	}
	ok, err := alloc.Satisfies(in, broken, md, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("demand satisfied with a starved pair")
	}
}

func TestRecoveryMultiPairDemand(t *testing.T) {
	in := testbedInput(t, nil)
	s1, _ := in.Net.NodeByName("DC1")
	d3, _ := in.Net.NodeByName("DC3")
	s2, _ := in.Net.NodeByName("DC2")
	d6, _ := in.Net.NodeByName("DC6")
	md := &demand.Demand{
		ID: 0,
		Pairs: []demand.PairDemand{
			{Src: s1, Dst: d3, Bandwidth: 300},
			{Src: s2, Dst: d6, Bandwidth: 200},
		},
		Target: 0.99, Charge: 500, RefundFrac: 0.2,
	}
	in.Demands = []*demand.Demand{md}
	grd, err := RecoverGreedy(in, []topo.LinkID{0})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := RecoverOptimal(in, []topo.LinkID{0})
	if err != nil {
		t.Fatal(err)
	}
	if grd.Profit > opt.Profit+1e-6 {
		t.Fatalf("greedy %v > optimal %v", grd.Profit, opt.Profit)
	}
	// Full profit requires every pair served.
	if opt.FullProfit[md.ID] {
		for pi, pr := range md.Pairs {
			sum := 0.0
			for _, f := range opt.Alloc[md.ID][pi] {
				sum += f
			}
			if sum < pr.Bandwidth-1 {
				t.Fatalf("pair %d only %v allocated despite full profit", pi, sum)
			}
		}
	}
}

func TestConjectureMultiPair(t *testing.T) {
	in := testbedInput(t, nil)
	s1, _ := in.Net.NodeByName("DC1")
	d3, _ := in.Net.NodeByName("DC3")
	s2, _ := in.Net.NodeByName("DC4")
	d6, _ := in.Net.NodeByName("DC6")
	md := &demand.Demand{
		ID: 0,
		Pairs: []demand.PairDemand{
			{Src: s1, Dst: d3, Bandwidth: 400},
			{Src: s2, Dst: d6, Bandwidth: 300},
		},
		Target: 0.95,
	}
	if !Conjecture(in, []*demand.Demand{md}) {
		t.Fatal("feasible multi-pair demand rejected by conjecture")
	}
	md.Pairs[0].Bandwidth = 50000
	if Conjecture(in, []*demand.Demand{md}) {
		t.Fatal("oversized multi-pair demand admitted")
	}
}

func TestAdmitTimeline(t *testing.T) {
	in := testbedInput(t, nil)
	mk := func(id int, bw, start, end float64) *demand.Demand {
		d := testbedDemand(t, in, id, "DC1", "DC3", bw, 0.95)
		d.Start, d.End = start, end
		return d
	}
	// Two bookings saturating DC1->DC3-ish capacity in [100, 200).
	booked := []*demand.Demand{
		mk(0, 900, 100, 200),
		mk(1, 900, 150, 250),
	}
	// A demand entirely before the congestion is admitted.
	early := mk(2, 900, 0, 90)
	dec, err := AdmitTimeline(in, booked, early)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted || len(dec.Intervals) != 1 {
		t.Fatalf("early: %+v", dec)
	}
	// A big demand overlapping the doubly-booked window is refused,
	// and the blocking interval is the overlap [150, 200).
	clash := mk(3, 1200, 120, 260)
	dec, err = AdmitTimeline(in, booked, clash)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Admitted {
		t.Fatal("clash admitted despite saturated window")
	}
	if dec.BlockingInterval[0] < 120 || dec.BlockingInterval[1] > 260 {
		t.Fatalf("blocking interval %v outside demand window", dec.BlockingInterval)
	}
	// The same demand booked after everyone departs is fine.
	later := mk(4, 1200, 300, 400)
	dec, err = AdmitTimeline(in, booked, later)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatal("later demand refused despite empty window")
	}
	// Empty lifetime is rejected.
	if _, err := AdmitTimeline(in, booked, mk(5, 10, 50, 50)); err == nil {
		t.Fatal("expected lifetime validation error")
	}
}

// Window-aware admission partitions correctly: interval boundaries
// cover the demand's lifetime exactly.
func TestAdmitTimelineIntervals(t *testing.T) {
	in := testbedInput(t, nil)
	mk := func(id int, bw, start, end float64) *demand.Demand {
		d := testbedDemand(t, in, id, "DC2", "DC5", bw, 0.9)
		d.Start, d.End = start, end
		return d
	}
	booked := []*demand.Demand{mk(0, 50, 10, 30), mk(1, 50, 20, 40)}
	d := mk(2, 50, 0, 50)
	dec, err := AdmitTimeline(in, booked, d)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Admitted {
		t.Fatal("light demand refused")
	}
	// Cuts at 10, 20, 30, 40 → 5 intervals spanning [0, 50).
	if len(dec.Intervals) != 5 {
		t.Fatalf("got %d intervals: %v", len(dec.Intervals), dec.Intervals)
	}
	if dec.Intervals[0][0] != 0 || dec.Intervals[len(dec.Intervals)-1][1] != 50 {
		t.Fatalf("intervals do not span the lifetime: %v", dec.Intervals)
	}
	for i := 1; i < len(dec.Intervals); i++ {
		if dec.Intervals[i][0] != dec.Intervals[i-1][1] {
			t.Fatalf("interval gap: %v", dec.Intervals)
		}
	}
}

// SRLG-aware scheduling: when both toy paths' first hops share a
// conduit, no allocation can certify 99% (a single conduit cut kills
// everything), and the scheduler must say so; without the group the
// same demand schedules fine.
func TestScheduleWithRiskGroups(t *testing.T) {
	in := fig2Input(t)
	in.Demands = in.Demands[:1] // just user1: 6 Gbps @ 99%
	u1 := in.Demands[0]
	var firstHops []topo.LinkID
	for _, tun := range in.TunnelsFor(u1, 0) {
		firstHops = append(firstHops, tun.Links[0])
	}
	groups := []scenario.RiskGroup{{Name: "dc1-conduit", Links: firstHops, Prob: 0.02}}

	// Independent model: fine.
	if _, err := ScheduleHard(in, ScheduleOptions{MaxFail: 2}); err != nil {
		t.Fatalf("independent schedule: %v", err)
	}
	// Correlated model: P(conduit up) ≈ 0.98 < 0.99 — no allocation
	// can reach the target, so the hardened schedule must fail.
	if _, err := ScheduleHard(in, ScheduleOptions{MaxFail: 2, Groups: groups}); err == nil {
		t.Fatal("correlated schedule should be infeasible at 99%")
	}
	// A 95% target tolerates the conduit.
	u1.Target = 0.95
	a, err := ScheduleHard(in, ScheduleOptions{MaxFail: 2, Groups: groups})
	if err != nil {
		t.Fatalf("95%% correlated schedule: %v", err)
	}
	ok, err := alloc.SatisfiesGroups(in, a, u1, 2, groups)
	if err != nil || !ok {
		av, _ := alloc.AchievedAvailabilityGroups(in, a, u1, 2, groups)
		t.Fatalf("correlated satisfaction failed: achieved %v, err %v", av, err)
	}
	// Enumerated mode refuses groups.
	if _, _, err := Schedule(in, ScheduleOptions{MaxFail: 1, Mode: Enumerated, Groups: groups}); err == nil {
		t.Fatal("enumerated mode must reject groups")
	}
}
