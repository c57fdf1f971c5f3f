package bate

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/metrics"
	"bate/internal/routing"
	"bate/internal/topo"
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

// TestLinkPricesRevisedMatchesDense: LinkPrices' shadow prices, solved
// on the revised engine, must match the dense reference tableau's duals
// of the same LP on the toy 4-DC and testbed 6-DC topologies.
func TestLinkPricesRevisedMatchesDense(t *testing.T) {
	toy := fig2Input(t)
	testbed := testbedInput(t, nil)
	testbed.Demands = testbed6Demands(t, testbed)
	cases := map[string]*alloc.Input{"toy4": toy, "testbed6": testbed}
	for name, in := range cases {
		p := lp.NewProblem()
		_, capIdx, err := buildScheduleLP(p, in, 2, alloc.FullCapacities(in), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := lp.SolveReference(p)
		if err != nil {
			t.Fatalf("%s dense: %v", name, err)
		}
		dense := make(map[topo.LinkID]float64, len(capIdx))
		for link, idx := range capIdx {
			dense[link] = -sol.Dual(idx)
		}
		revised, err := LinkPrices(in, ScheduleOptions{MaxFail: 2})
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
// target-meeting allocation.
func TestScheduleRevisedEngine(t *testing.T) {
	in := fig2Input(t)
	a, stats, err := Schedule(in, ScheduleOptions{MaxFail: 2})
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
	cold, _, err := Schedule(in3, ScheduleOptions{MaxFail: 2})
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
	cold, stCold, err := Schedule(in4, ScheduleOptions{MaxFail: 2})
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

// TestNoProductionSolveOnTableau: every solve the controller and the
// simulators make runs on the revised simplex. On a Testbed book and a
// B4 book it drives admission (the relaxed trial and its hard fallback,
// and the Appendix A MILP), a scheduling round, hardening, the backup
// pass and its planned root, every recovery rung that solves (the
// budgeted optimal MILP and the greedy floor's fits) and link pricing,
// and holds the dense tableau's pivot counter still.
func TestNoProductionSolveOnTableau(t *testing.T) {
	if v := os.Getenv("LP_CROSSCHECK"); v != "" && v != "0" {
		t.Skip("LP_CROSSCHECK runs the dense engine beside every solve")
	}
	for _, c := range []struct {
		name          string
		net           *topo.Network
		book, probes  int
		minBw, spanBw float64
	}{
		{"Testbed", topo.Testbed(), 12, 12, 150, 350},
		{"B4", topo.B4(), 60, 12, 100, 400},
	} {
		t.Run(c.name, func(t *testing.T) {
			in := &alloc.Input{Net: c.net, Tunnels: routing.Compute(c.net, routing.KShortest, 4)}
			rng := rand.New(rand.NewSource(3))
			pairs := c.net.Pairs()
			targets := []float64{0.99, 0.999, 0.9999}
			draw := func(id int) *demand.Demand {
				p := pairs[rng.Intn(len(pairs))]
				bw := c.minBw + c.spanBw*rng.Float64()
				return &demand.Demand{
					ID: id, Pairs: []demand.PairDemand{{Src: p[0], Dst: p[1], Bandwidth: bw}},
					Target: targets[rng.Intn(len(targets))], Charge: bw, RefundFrac: 0.1,
				}
			}
			for i := 0; i < c.book; i++ {
				in.Demands = append(in.Demands, draw(i))
			}
			opts := ScheduleOptions{MaxFail: 2}
			before := metrics.Snapshot()

			relaxed, _, err := NewScheduler().Schedule(in, opts)
			if err != nil {
				t.Fatal(err)
			}
			current, err := Harden(in, opts, relaxed)
			if err != nil {
				t.Fatal(err)
			}
			// Alone on the empty network Admit's relaxed trial is Schedule
			// on the one-demand book, so the test can tell when the hard
			// fallback ran.
			empty := in.WithDemands(nil)
			fallbacks := 0
			for i := 0; i < c.probes; i++ {
				d := draw(c.book + i)
				if _, err := Admit(in, current, in.Demands, d, opts.MaxFail); err != nil {
					t.Fatal(err)
				}
				if _, err := Admit(empty, alloc.Allocation{}, nil, d, opts.MaxFail); err != nil {
					t.Fatal(err)
				}
				one := in.WithDemands([]*demand.Demand{d})
				if a, _, err := Schedule(one, opts); err == nil {
					if ok, _ := alloc.Satisfies(one, a, d, opts.MaxFail); !ok {
						fallbacks++
					}
				}
			}
			if fallbacks == 0 {
				t.Fatal("no probe took Admit's hard fallback")
			}
			if _, _, err := AdmitOptimal(in, in.Demands, draw(c.book+c.probes), opts.MaxFail); err != nil {
				t.Fatal(err)
			}

			bs, err := PrecomputeBackups(in, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := bs.PlanRoot(in, nil); err != nil {
				t.Fatal(err)
			}
			links := c.net.Links()
			down := []topo.LinkID{links[0].ID, links[len(links)/2].ID} // depth 1 plans no double failure
			if _, stage, err := Recover(in, down, RecoverOptions{Backups: bs, Deadline: time.Minute}); err != nil || stage != StageOptimal {
				t.Fatalf("Recover: stage %v, err %v; want the optimal rung", stage, err)
			}
			gated := RecoverOptions{Backups: bs, Gate: func(string) error { return errors.New("gated") }}
			if _, stage, err := Recover(in, down, gated); err != nil || stage != StageGreedy {
				t.Fatalf("gated Recover: stage %v, err %v; want the greedy floor", stage, err)
			}
			if _, err := RecoverGreedy(in, down[:1]); err != nil {
				t.Fatal(err)
			}
			if _, err := LinkPrices(in, opts); err != nil {
				t.Fatal(err)
			}

			after := metrics.Snapshot()
			if d := after["lp.pivots_dense"] - before["lp.pivots_dense"]; d != 0 {
				t.Fatalf("%d pivots on the dense tableau", d)
			}
			if after["lp.pivots_revised"] == before["lp.pivots_revised"] {
				t.Fatal("no pivots on the revised engine")
			}
		})
	}
}
