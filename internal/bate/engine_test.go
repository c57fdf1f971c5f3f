package bate

import (
	"math"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
)

// testbed6Demands is a small saturated workload on the 6-DC testbed.
func testbed6Demands(t *testing.T, in *alloc.Input) []*demand.Demand {
	t.Helper()
	return []*demand.Demand{
		testbedDemand(t, in, 0, "DC1", "DC3", 400, 0.99),
		testbedDemand(t, in, 1, "DC2", "DC6", 300, 0.95),
		testbedDemand(t, in, 2, "DC4", "DC5", 200, 0.9),
	}
}

// TestLinkPricesRevisedMatchesDense: the revised engine's shadow
// prices must match the dense reference on the toy 4-DC and testbed
// 6-DC topologies (ISSUE 2 satellite: Solution.Dual / LinkPrices
// coverage under the revised engine).
func TestLinkPricesRevisedMatchesDense(t *testing.T) {
	toy := fig2Input(t)
	testbed := testbedInput(t, nil)
	testbed.Demands = testbed6Demands(t, testbed)
	cases := map[string]*alloc.Input{"toy4": toy, "testbed6": testbed}
	for name, in := range cases {
		dense, err := LinkPrices(in, ScheduleOptions{MaxFail: 2, Engine: lp.EngineDense})
		if err != nil {
			t.Fatalf("%s dense: %v", name, err)
		}
		revised, err := LinkPrices(in, ScheduleOptions{MaxFail: 2, Engine: lp.EngineRevised})
		if err != nil {
			t.Fatalf("%s revised: %v", name, err)
		}
		if len(dense) != len(revised) {
			t.Fatalf("%s: price map sizes differ: %d vs %d", name, len(dense), len(revised))
		}
		for link, dp := range dense {
			rp, ok := revised[link]
			if !ok {
				t.Fatalf("%s: link %d missing from revised prices", name, link)
			}
			if math.Abs(dp-rp) > 1e-6*(1+math.Abs(dp)) {
				t.Fatalf("%s: link %d price dense=%g revised=%g", name, link, dp, rp)
			}
		}
	}
}

// TestScheduleRevisedEngine: the revised engine produces a feasible,
// target-meeting allocation equivalent in quality to the dense one.
func TestScheduleRevisedEngine(t *testing.T) {
	in := fig2Input(t)
	a, stats, err := Schedule(in, ScheduleOptions{MaxFail: 2, Engine: lp.EngineRevised})
	if err != nil {
		t.Fatal(err)
	}
	if stats.WarmStarted {
		t.Fatal("cold schedule flagged as warm-started")
	}
	if err := a.CheckCapacity(in, 1e-3); err != nil {
		t.Fatal(err)
	}
	for _, d := range in.Demands {
		av, err := alloc.AchievedAvailability(in, a, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		if av < d.Target {
			t.Fatalf("demand %d achieved %v < target %v", d.ID, av, d.Target)
		}
		if got := a.AllocatedFor(d, 0); got < d.Pairs[0].Bandwidth-1 {
			t.Fatalf("demand %d allocated %v < %v", d.ID, got, d.Pairs[0].Bandwidth)
		}
	}
}

// TestSchedulerWarmStart: a Scheduler's second solve of the same
// admitted set reuses the cached basis and needs no more pivots than
// the cold round, while preserving solution quality; a changed admitted
// set warm-starts too and lands on the cold solve's optimum.
func TestSchedulerWarmStart(t *testing.T) {
	in := fig2Input(t)
	s := NewScheduler()
	opts := ScheduleOptions{MaxFail: 2}
	_, st1, err := s.Schedule(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st1.WarmStarted {
		t.Fatal("first round flagged as warm-started")
	}
	a2, st2, err := s.Schedule(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.WarmStarted {
		t.Fatal("second round did not warm-start")
	}
	if st2.Iterations > st1.Iterations {
		t.Fatalf("warm round used more pivots (%d) than cold (%d)", st2.Iterations, st1.Iterations)
	}
	for _, d := range in.Demands {
		av, err := alloc.AchievedAvailability(in, a2, d, 3)
		if err != nil {
			t.Fatal(err)
		}
		if av < d.Target {
			t.Fatalf("demand %d achieved %v < target %v after warm round", d.ID, av, d.Target)
		}
	}
	// Another book on another topology shares no column or row with the
	// cached basis except by accident of naming (both number their
	// demands from 0): the keyed basis still seeds the round, which must
	// warm-start and equal the cold solve.
	in3 := testbedInput(t, nil)
	in3.Demands = testbed6Demands(t, in3)
	a3, st3, err := s.Schedule(in3, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st3.WarmStarted {
		t.Fatalf("shape-changed round did not warm-start (fallback %q)", st3.WarmFallback)
	}
	cold, _, err := Schedule(in3, ScheduleOptions{MaxFail: 2, Engine: lp.EngineRevised})
	if err != nil {
		t.Fatal(err)
	}
	if w, c := eq7Objective(t, in3, a3, 2), eq7Objective(t, in3, cold, 2); math.Abs(w-c) > 1e-9*math.Abs(c) {
		t.Fatalf("shape-changed round: warm objective %.12g, cold %.12g", w, c)
	}
	// Growing the admitted set by one demand keeps the rest of the basis.
	in4 := testbedInput(t, nil)
	in4.Demands = append(testbed6Demands(t, in4), testbedDemand(t, in4, 3, "DC3", "DC5", 250, 0.99))
	a4, st4, err := s.Schedule(in4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !st4.WarmStarted {
		t.Fatalf("grown round did not warm-start (fallback %q)", st4.WarmFallback)
	}
	cold, stCold, err := Schedule(in4, ScheduleOptions{MaxFail: 2, Engine: lp.EngineRevised})
	if err != nil {
		t.Fatal(err)
	}
	if w, c := eq7Objective(t, in4, a4, 2), eq7Objective(t, in4, cold, 2); math.Abs(w-c) > 1e-9*math.Abs(c) {
		t.Fatalf("grown round: warm objective %.12g, cold %.12g", w, c)
	}
	if st4.Iterations >= stCold.Iterations {
		t.Fatalf("grown round took %d pivots warm, %d cold", st4.Iterations, stCold.Iterations)
	}
}
