package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/routing"
	"bate/internal/topo"
)

func testbedSetup(t *testing.T) (*topo.Network, *routing.TunnelSet) {
	t.Helper()
	n := topo.Testbed()
	return n, routing.Compute(n, routing.KShortest, 4)
}

func mkDemand(t *testing.T, n *topo.Network, id int, src, dst string, bw, target, start, end float64) *demand.Demand {
	t.Helper()
	s, ok := n.NodeByName(src)
	if !ok {
		t.Fatalf("node %s", src)
	}
	d, _ := n.NodeByName(dst)
	return &demand.Demand{
		ID: id, Pairs: []demand.PairDemand{{Src: s, Dst: d, Bandwidth: bw}},
		Target: target, Start: start, End: end, Charge: bw, RefundFrac: 0.1,
	}
}

func TestTEConfigAllocateAllKinds(t *testing.T) {
	n, ts := testbedSetup(t)
	demands := []*demand.Demand{
		mkDemand(t, n, 0, "DC1", "DC3", 400, 0.99, 0, 100),
		mkDemand(t, n, 1, "DC2", "DC5", 300, 0.95, 0, 100),
	}
	in := &alloc.Input{Net: n, Tunnels: ts, Demands: demands}
	for _, kind := range AllKinds() {
		a, err := TEConfig{Kind: kind}.Allocate(in)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := a.CheckCapacity(in, 1e-3); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
	// Empty demand set.
	empty := &alloc.Input{Net: n, Tunnels: ts}
	cfgBATE := TEConfig{Kind: KindBATE}
	if a, err := cfgBATE.Allocate(empty); err != nil || a == nil {
		t.Fatalf("empty: %v", err)
	}
	bad := TEConfig{Kind: TEKind(9)}
	if _, err := bad.Allocate(in); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestBestEffortFallbackOnOverload(t *testing.T) {
	n, ts := testbedSetup(t)
	// 3 Gbps through a network whose DC1 egress cut is 3 Gbps total:
	// infeasible with the extra demands, triggers the fallback.
	demands := []*demand.Demand{
		mkDemand(t, n, 0, "DC1", "DC3", 2500, 0.99, 0, 100),
		mkDemand(t, n, 1, "DC1", "DC4", 2500, 0.999, 0, 100),
		mkDemand(t, n, 2, "DC1", "DC5", 2500, 0.95, 0, 100),
	}
	in := &alloc.Input{Net: n, Tunnels: ts, Demands: demands}
	a, err := TEConfig{Kind: KindBATE}.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.CheckCapacity(in, 1e-3); err != nil {
		t.Fatal(err)
	}
	if a.Total() <= 0 {
		t.Fatal("fallback allocated nothing")
	}
}

func TestFailureInjector(t *testing.T) {
	n := topo.Testbed()
	rng := rand.New(rand.NewSource(7))
	fi := NewFailureInjector(n, 3, rng)
	// All links start up.
	for _, l := range n.Links() {
		if !fi.LinkUp(l.ID) {
			t.Fatal("link down at start")
		}
	}
	failures := 0
	for now := 0.0; now < 2000; now++ {
		fi.Step(now)
		failures = 0
		for _, c := range fi.FailCounts {
			failures += c
		}
	}
	if failures == 0 {
		t.Fatal("no failures in 2000s; L4 at 1%/s should fail often")
	}
	// L4 (links 6,7) must dominate the counts (Fig. 10).
	l4 := fi.FailCounts[6] + fi.FailCounts[7]
	others := 0
	for i, c := range fi.FailCounts {
		if i != 6 && i != 7 {
			others += c
		}
	}
	if l4 <= others {
		t.Fatalf("L4 failures %d should dominate others %d", l4, others)
	}
}

func TestFailureInjectorRepair(t *testing.T) {
	n := topo.Testbed()
	// Force a failure by stepping until one occurs, then check repair.
	rng := rand.New(rand.NewSource(3))
	fi := NewFailureInjector(n, 3, rng)
	var failedAt float64 = -1
	for now := 0.0; now < 5000; now++ {
		fi.Step(now)
		if len(fi.Down()) > 0 {
			failedAt = now
			break
		}
	}
	if failedAt < 0 {
		t.Fatal("no failure observed")
	}
	down := fi.Down()[0]
	// Must be repaired within repairSec (+1 step slack), unless it
	// re-failed (prob ~1% per step; seed 3 does not).
	for now := failedAt + 1; now <= failedAt+4; now++ {
		fi.Step(now)
	}
	if !fi.LinkUp(down) {
		t.Fatalf("link %d not repaired after 3s", down)
	}
}

func TestRescaleProportional(t *testing.T) {
	n, ts := testbedSetup(t)
	d := mkDemand(t, n, 0, "DC1", "DC3", 600, 0.99, 0, 100)
	in := &alloc.Input{Net: n, Tunnels: ts, Demands: []*demand.Demand{d}}
	a := alloc.New(in)
	a[0][0][0] = 400
	a[0][0][1] = 200
	tunnels := in.TunnelsFor(d, 0)
	// Kill tunnel 0 by failing its first link.
	dead := tunnels[0].Links[0]
	upFn := func(tn routing.Tunnel) bool { return !tn.Uses(dead) }
	rates := rescaleProportional(in, a, upFn)
	total := 0.0
	for ti, r := range rates[0][0] {
		if !upFn(tunnels[ti]) && r != 0 {
			t.Fatal("rescaled onto dead tunnel")
		}
		total += r
	}
	if math.Abs(total-600) > 1e-9 {
		t.Fatalf("rescaled total %v, want 600", total)
	}
}

func TestDeliveredWithCongestion(t *testing.T) {
	n := topo.NewBuilder("line").AddLink("a", "b", 100, 0.001).MustBuild()
	ts := routing.Compute(n, routing.KShortest, 1)
	a0, _ := n.NodeByName("a")
	b0, _ := n.NodeByName("b")
	d := &demand.Demand{ID: 0, Pairs: []demand.PairDemand{{Src: a0, Dst: b0, Bandwidth: 200}}}
	in := &alloc.Input{Net: n, Tunnels: ts, Demands: []*demand.Demand{d}}
	rates := sendRates{0: {{200}}} // 2x oversubscribed
	delivered, offered := deliveredWithCongestion(in, rates)
	if offered != 200 {
		t.Fatalf("offered %v", offered)
	}
	if math.Abs(delivered[0][0]-100) > 1e-9 {
		t.Fatalf("delivered %v, want 100 (congestion-throttled)", delivered[0][0])
	}
}

func TestRunTimeSimBasic(t *testing.T) {
	n, ts := testbedSetup(t)
	workload := []*demand.Demand{
		mkDemand(t, n, 0, "DC1", "DC3", 400, 0.95, 0, 300),
		mkDemand(t, n, 1, "DC1", "DC4", 300, 0.99, 10, 290),
		mkDemand(t, n, 2, "DC1", "DC5", 500, 0.95, 20, 280),
	}
	res, err := RunTimeSim(TimeSimConfig{
		Net: n, Tunnels: ts, Workload: workload,
		HorizonSec: 300, ScheduleEverySec: 60,
		TE: TEConfig{Kind: KindBATE}, Admission: AdmitBATE, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived != 3 {
		t.Fatalf("arrived %d", res.Arrived)
	}
	if res.Admitted+res.Rejected != res.Arrived {
		t.Fatal("admission accounting broken")
	}
	if res.Admitted == 0 {
		t.Fatal("nothing admitted on an empty testbed")
	}
	for _, o := range res.Outcomes {
		if !o.Admitted {
			continue
		}
		if o.ActiveSec <= 0 {
			t.Fatalf("demand %d never active", o.ID)
		}
		if o.Availability < 0 || o.Availability > 1 {
			t.Fatalf("availability %v", o.Availability)
		}
	}
	if res.Profit <= 0 || res.Profit > res.FullCharge {
		t.Fatalf("profit %v / full %v", res.Profit, res.FullCharge)
	}
	if len(res.BwRatios) == 0 || len(res.UtilSamples) == 0 {
		t.Fatal("missing epoch samples")
	}
}

// With no failures possible (zero failure probabilities), BATE must
// satisfy every admitted demand every second.
func TestRunTimeSimNoFailuresFullAvailability(t *testing.T) {
	base := topo.Testbed()
	probs := make([]float64, base.NumLinks())
	n, err := base.WithFailProbs(probs)
	if err != nil {
		t.Fatal(err)
	}
	ts := routing.Compute(n, routing.KShortest, 4)
	workload := []*demand.Demand{
		mkDemand(t, n, 0, "DC1", "DC3", 400, 0.99, 0, 200),
		mkDemand(t, n, 1, "DC2", "DC6", 300, 0.95, 0, 200),
	}
	res, err := RunTimeSim(TimeSimConfig{
		Net: n, Tunnels: ts, Workload: workload,
		HorizonSec: 200, TE: TEConfig{Kind: KindBATE, MaxFail: 1},
		Admission: AdmitBATE, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range res.Outcomes {
		if o.Admitted && o.Availability < 1 {
			t.Fatalf("demand %d availability %v with no failures", o.ID, o.Availability)
		}
	}
	if res.LossRatio != 0 {
		t.Fatalf("loss %v with no failures", res.LossRatio)
	}
}

func TestRunTimeSimAdmissionModes(t *testing.T) {
	n, ts := testbedSetup(t)
	var workload []*demand.Demand
	for i := 0; i < 6; i++ {
		workload = append(workload, mkDemand(t, n, i, "DC1", "DC3", 300, 0.95, float64(i), 120))
	}
	rejected := make(map[AdmissionMode]int)
	for _, mode := range []AdmissionMode{AdmitNone, AdmitFixedOnly, AdmitBATE} {
		res, err := RunTimeSim(TimeSimConfig{
			Net: n, Tunnels: ts, Workload: workload,
			HorizonSec: 120, TE: TEConfig{Kind: KindBATE}, Admission: mode, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		rejected[mode] = res.Rejected
	}
	if rejected[AdmitNone] != 0 {
		t.Fatal("AdmitNone must not reject")
	}
	// 6 × 300 Mbps between DC1 and DC3 exceeds what availability
	// targets allow; Fixed must reject at least as many as BATE.
	if rejected[AdmitFixedOnly] < rejected[AdmitBATE] {
		t.Fatalf("fixed rejected %d < BATE %d", rejected[AdmitFixedOnly], rejected[AdmitBATE])
	}
}

func TestRunEventSimBasic(t *testing.T) {
	n, ts := testbedSetup(t)
	rng := rand.New(rand.NewSource(31))
	gen := demand.NewGenerator(n, demand.GeneratorConfig{
		ArrivalsPerMinute: 0.2,
		MeanDurationSec:   600,
		MinBandwidth:      20, MaxBandwidth: 80,
		Targets: []float64{0.95, 0.99},
	}, rng)
	workload := gen.Generate(1800)
	res, err := RunEventSim(EventSimConfig{
		Net: n, Tunnels: ts, Workload: workload,
		HorizonSec: 1800, ScheduleEverySec: 300,
		TE: TEConfig{Kind: KindBATE}, Admission: AdmitBATE,
		ProfitSamples: 1, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Arrived == 0 || res.Arrived != res.Admitted+res.Rejected {
		t.Fatalf("accounting: %+v", res)
	}
	if res.Checked == 0 {
		t.Fatal("no satisfaction checks")
	}
	sr := res.SatisfactionRatio()
	if sr < 0.9 {
		t.Fatalf("BATE satisfaction %v under light load", sr)
	}
	if len(res.ProfitRatios) == 0 {
		t.Fatal("no profit samples")
	}
	for _, pr := range res.ProfitRatios {
		if pr < 0 || pr > 1+1e-9 {
			t.Fatalf("profit ratio %v", pr)
		}
	}
}

func TestRunEventSimShadow(t *testing.T) {
	n, ts := testbedSetup(t)
	var workload []*demand.Demand
	for i := 0; i < 8; i++ {
		workload = append(workload, mkDemand(t, n, i, "DC1", "DC4", 250, 0.95, float64(i*30), 1200))
	}
	res, err := RunEventSim(EventSimConfig{
		Net: n, Tunnels: ts, Workload: workload,
		HorizonSec: 1200, ScheduleEverySec: 600,
		TE: TEConfig{Kind: KindBATE}, Admission: AdmitBATE,
		Shadow: true, MaxFail: 1, Seed: 13,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Shadow deciders ran on every arrival.
	for _, mode := range []AdmissionMode{AdmitFixedOnly, AdmitBATE, AdmitOptimal} {
		if len(res.AdmissionDelaysSec[mode]) != res.Arrived {
			t.Fatalf("%v evaluated %d/%d arrivals", mode, len(res.AdmissionDelaysSec[mode]), res.Arrived)
		}
	}
	// False rejections can't exceed rejections.
	for mode, fr := range res.ShadowFalseReject {
		if fr > res.ShadowRejected[mode] {
			t.Fatalf("%v: false rejects %d > rejects %d", mode, fr, res.ShadowRejected[mode])
		}
	}
	// BATE's conjecture rejects no more than Fixed (it subsumes it).
	if res.ShadowRejected[AdmitBATE] > res.ShadowRejected[AdmitFixedOnly] {
		t.Fatalf("BATE rejected %d > fixed %d", res.ShadowRejected[AdmitBATE], res.ShadowRejected[AdmitFixedOnly])
	}
}

func TestRecoveryCompareSamples(t *testing.T) {
	n, ts := testbedSetup(t)
	workload := []*demand.Demand{
		mkDemand(t, n, 0, "DC1", "DC3", 500, 0.99, 0, 1200),
		mkDemand(t, n, 1, "DC1", "DC5", 400, 0.95, 0, 1200),
	}
	res, err := RunEventSim(EventSimConfig{
		Net: n, Tunnels: ts, Workload: workload,
		HorizonSec: 1200, ScheduleEverySec: 600,
		TE: TEConfig{Kind: KindBATE}, Admission: AdmitNone,
		ProfitSamples: 2, RecoveryCompare: true, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ApproxRatios) == 0 {
		t.Fatal("no approximation-ratio samples")
	}
	for _, r := range res.ApproxRatios {
		if r < 1-1e-6 {
			t.Fatalf("approx ratio %v < 1 (optimal worse than greedy?)", r)
		}
	}
}

func TestAdmissionModeString(t *testing.T) {
	if AdmitNone.String() != "None" || AdmitFixedOnly.String() != "Fixed" ||
		AdmitBATE.String() != "BATE" || AdmitOptimal.String() != "OPT" ||
		AdmissionMode(9).String() != "unknown" {
		t.Fatal("mode strings wrong")
	}
	for _, k := range AllKinds() {
		if k.String() == "unknown" {
			t.Fatal("kind string missing")
		}
	}
	if TEKind(9).String() != "unknown" {
		t.Fatal("fallback kind string")
	}
}

// Under a failure, TEAVAR-style rescaling can congest surviving links
// while FFC keeps its allocation; the loss model must reflect that
// (Fig. 11's ordering).
func TestFailureLossOrdering(t *testing.T) {
	// Force failures deterministically: one link with a huge failure
	// probability so it is down most of the run.
	base := topo.Testbed()
	probs := make([]float64, base.NumLinks())
	probs[6] = 0.3 // DC1->DC4 direction of L4
	n, err := base.WithFailProbs(probs)
	if err != nil {
		t.Fatal(err)
	}
	ts := routing.Compute(n, routing.KShortest, 4)
	workload := []*demand.Demand{
		mkDemand(t, n, 0, "DC1", "DC4", 600, 0.95, 0, 400),
		mkDemand(t, n, 1, "DC1", "DC5", 600, 0.95, 0, 400),
	}
	losses := make(map[TEKind]float64)
	for _, kind := range []TEKind{KindBATE, KindTEAVAR, KindFFC} {
		res, err := RunTimeSim(TimeSimConfig{
			Net: n, Tunnels: ts, Workload: workload,
			HorizonSec: 400, ScheduleEverySec: 400, RepairSec: 3,
			TE: TEConfig{Kind: kind, TEAVARBeta: 0.9}, Admission: AdmitNone, Seed: 9,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		losses[kind] = res.LossRatio
	}
	// All schemes lose the 1-second transients; BATE recovers with
	// capacity-aware backups so it must not lose more than TEAVAR's
	// rescale-and-congest reaction.
	if losses[KindBATE] > losses[KindTEAVAR]+1e-9 {
		t.Fatalf("BATE loss %v > TEAVAR loss %v", losses[KindBATE], losses[KindTEAVAR])
	}
	for kind, l := range losses {
		if l < 0 || l > 0.5 {
			t.Fatalf("%v loss ratio %v out of range", kind, l)
		}
	}
}

func TestEventSimProfitForBaselines(t *testing.T) {
	n, ts := testbedSetup(t)
	workload := []*demand.Demand{
		mkDemand(t, n, 0, "DC1", "DC3", 400, 0.99, 0, 1200),
		mkDemand(t, n, 1, "DC1", "DC4", 300, 0.95, 0, 1200),
	}
	for _, kind := range []TEKind{KindTEAVAR, KindFFC, KindSWAN} {
		res, err := RunEventSim(EventSimConfig{
			Net: n, Tunnels: ts, Workload: workload,
			HorizonSec: 1200, ScheduleEverySec: 600,
			TE: TEConfig{Kind: kind, TEAVARBeta: 0.99}, Admission: AdmitNone,
			ProfitSamples: 3, Seed: 77,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(res.ProfitRatios) == 0 {
			t.Fatalf("%v: no profit samples", kind)
		}
		for _, pr := range res.ProfitRatios {
			if pr < 0 || pr > 1+1e-9 {
				t.Fatalf("%v: profit ratio %v", kind, pr)
			}
		}
	}
}

// The rescale model must conserve traffic when survivors exist and
// drop everything when they do not.
func TestRescaleNoSurvivors(t *testing.T) {
	n := topo.NewBuilder("line").AddLink("a", "b", 1000, 0.001).MustBuild()
	ts := routing.Compute(n, routing.KShortest, 1)
	a0, _ := n.NodeByName("a")
	b0, _ := n.NodeByName("b")
	d := &demand.Demand{ID: 0, Pairs: []demand.PairDemand{{Src: a0, Dst: b0, Bandwidth: 500}}}
	in := &alloc.Input{Net: n, Tunnels: ts, Demands: []*demand.Demand{d}}
	a := alloc.New(in)
	a[0][0][0] = 500
	rates := rescaleProportional(in, a, func(routing.Tunnel) bool { return false })
	for _, r := range rates[0][0] {
		if r != 0 {
			t.Fatal("traffic rescaled onto nothing")
		}
	}
}

func TestTimeSimFFCKeepsAllocation(t *testing.T) {
	// FFC does not rescale: during a failure its surviving-tunnel rates
	// equal the scheduled allocation.
	n, ts := testbedSetup(t)
	d := mkDemand(t, n, 0, "DC1", "DC3", 400, 0.95, 0, 60)
	in := &alloc.Input{Net: n, Tunnels: ts, Demands: []*demand.Demand{d}}
	cfg := TEConfig{Kind: KindFFC}
	a, err := cfg.Allocate(in)
	if err != nil {
		t.Fatal(err)
	}
	tunnels := in.TunnelsFor(d, 0)
	dead := tunnels[0].Links[0]
	up := func(tn routing.Tunnel) bool { return !tn.Uses(dead) }
	rates := ratesFromAlloc(in, a, up)
	for ti, r := range rates[0][0] {
		if !up(tunnels[ti]) && r != 0 {
			t.Fatal("rate on dead tunnel")
		}
		if up(tunnels[ti]) && r != a[0][0][ti] {
			t.Fatalf("tunnel %d rate %v != allocation %v", ti, r, a[0][0][ti])
		}
	}
}

// A bare-line trace parses as a schedule of Events only, and the
// injector replays it.
func TestParseScheduleTraceReplay(t *testing.T) {
	base := topo.Testbed()
	probs := make([]float64, base.NumLinks())
	n, err := base.WithFailProbs(probs) // pure replay: no random failures
	if err != nil {
		t.Fatal(err)
	}
	trace := `
# L4 outage then an L1 blip
DC1 DC4 10 20
DC1 DC2 15 16
`
	s, err := ParseSchedule(strings.NewReader(trace), n)
	if err != nil {
		t.Fatal(err)
	}
	events := s.Events
	if len(events) != 2 || events[0].DownAt != 10 {
		t.Fatalf("events %+v", events)
	}
	fi := NewFailureInjector(n, 3, rand.New(rand.NewSource(1)))
	fi.ApplyTrace(events)
	dc1, _ := n.NodeByName("DC1")
	dc4, _ := n.NodeByName("DC4")
	l4, _ := n.LinkBetween(dc1, dc4)
	for now := 0.0; now < 30; now++ {
		fi.Step(now)
		wantDown := now >= 10 && now < 20
		if fi.LinkUp(l4.ID) == wantDown {
			t.Fatalf("t=%v: L4 up=%v, want down=%v", now, fi.LinkUp(l4.ID), wantDown)
		}
	}
	if fi.FailCounts[l4.ID] != 1 {
		t.Fatalf("L4 fail count %d", fi.FailCounts[l4.ID])
	}
}

func TestParseScheduleTraceErrors(t *testing.T) {
	n := topo.Testbed()
	cases := []string{
		"DC1 DC4 10",     // wrong arity
		"NOPE DC4 10 20", // unknown src
		"DC1 NOPE 10 20", // unknown dst
		"DC1 DC3 10 20",  // no direct link DC1->DC3
		"DC1 DC4 x 20",   // bad down
		"DC1 DC4 10 y",   // bad up
		"DC1 DC4 20 10",  // repair before failure
		"DC1 DC4 -5 10",  // negative time
	}
	for _, src := range cases {
		if _, err := ParseSchedule(strings.NewReader(src), n); err == nil {
			t.Errorf("ParseSchedule(%q): expected error", src)
		}
	}
}

// A scripted outage drives a full time simulation: the affected demand
// loses availability exactly for the outage duration under BATE-TS
// (no recovery), and far less under BATE with backups.
func TestTimeSimWithTrace(t *testing.T) {
	base := topo.Testbed()
	probs := make([]float64, base.NumLinks())
	n, err := base.WithFailProbs(probs)
	if err != nil {
		t.Fatal(err)
	}
	ts := routing.Compute(n, routing.KShortest, 4)
	d := mkDemand(t, n, 0, "DC1", "DC4", 400, 0.99, 0, 100)
	cut, err := ParseSchedule(strings.NewReader("DC1 DC4 50 60"), n)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTimeSim(TimeSimConfig{
		Net: n, Tunnels: ts, Workload: []*demand.Demand{d},
		HorizonSec: 100, ScheduleEverySec: 100,
		TE: TEConfig{Kind: KindBATE}, Admission: AdmitNone,
		Trace: cut.Events, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := res.Outcomes[0]
	// Backups reroute instantly; the outage should barely dent
	// availability.
	if o.Availability < 0.99 {
		t.Fatalf("availability %v with instant backups", o.Availability)
	}
}

func TestRiskGroupCorrelatedFailures(t *testing.T) {
	base := topo.Testbed()
	probs := make([]float64, base.NumLinks()) // no independent failures
	n, err := base.WithFailProbs(probs)
	if err != nil {
		t.Fatal(err)
	}
	fi := NewFailureInjector(n, 3, rand.New(rand.NewSource(9)))
	fi.AddRiskGroup([]topo.LinkID{0, 1}, 0.05)
	sawBoth := false
	for now := 0.0; now < 500; now++ {
		fi.Step(now)
		if !fi.LinkUp(0) || !fi.LinkUp(1) {
			// Correlation: whenever one member is down the other is too.
			if fi.LinkUp(0) != fi.LinkUp(1) {
				t.Fatalf("t=%v: group members diverged", now)
			}
			sawBoth = true
		}
		for _, l := range n.Links() {
			if l.ID > 1 && !fi.LinkUp(l.ID) {
				t.Fatalf("non-member link %d failed", l.ID)
			}
		}
	}
	if !sawBoth {
		t.Fatal("risk group never fired in 500 steps at 5%/s")
	}
	if fi.FailCounts[0] == 0 || fi.FailCounts[0] != fi.FailCounts[1] {
		t.Fatalf("group fail counts %d/%d", fi.FailCounts[0], fi.FailCounts[1])
	}
}
