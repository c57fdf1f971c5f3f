package bate

import (
	"errors"
	"math/rand"
	"os"
	"testing"
	"time"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/metrics"
	"bate/internal/routing"
	"bate/internal/topo"
)

func TestRecoverBackupHit(t *testing.T) {
	in := testbedInput(t, nil)
	in.Demands = []*demand.Demand{
		testbedDemand(t, in, 1, "DC1", "DC3", 400, 0.99),
		testbedDemand(t, in, 2, "DC2", "DC6", 300, 0.95),
	}
	bs, err := PrecomputeBackups(in, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	down := []topo.LinkID{in.Net.Links()[0].ID}
	r, stage, err := Recover(in, down, RecoverOptions{Backups: bs})
	if err != nil {
		t.Fatal(err)
	}
	if stage != StageBackup {
		t.Fatalf("stage = %v, want backup (failure set is covered)", stage)
	}
	want, _ := bs.For(in, down)
	if r != want {
		t.Fatal("backup hit did not return the precomputed result")
	}
}

func TestRecoverFallsToOptimal(t *testing.T) {
	in := testbedInput(t, nil)
	in.Demands = []*demand.Demand{
		testbedDemand(t, in, 1, "DC1", "DC3", 400, 0.99),
	}
	// Depth-1 backups cannot cover a two-link failure.
	bs, err := PrecomputeBackups(in, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	links := in.Net.Links()
	down := []topo.LinkID{links[0].ID, links[1].ID}
	r, stage, err := Recover(in, down, RecoverOptions{Backups: bs, Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if stage != StageOptimal {
		t.Fatalf("stage = %v, want optimal", stage)
	}
	if r == nil || r.Alloc == nil {
		t.Fatal("nil recovery result")
	}
}

func TestRecoverGateForcesGreedy(t *testing.T) {
	in := testbedInput(t, nil)
	in.Demands = []*demand.Demand{
		testbedDemand(t, in, 1, "DC1", "DC3", 400, 0.99),
		testbedDemand(t, in, 2, "DC2", "DC6", 300, 0.95),
	}
	denied := errors.New("budget exhausted")
	gated := 0
	before := recFallback.Load()
	r, stage, err := Recover(in, []topo.LinkID{in.Net.Links()[2].ID, in.Net.Links()[3].ID}, RecoverOptions{
		Gate: func(op string) error {
			if op != "recover" {
				t.Fatalf("gate consulted for %q, want recover", op)
			}
			gated++
			return denied
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gated != 1 {
		t.Fatalf("gate consulted %d times, want 1", gated)
	}
	if stage != StageGreedy {
		t.Fatalf("stage = %v, want greedy (optimal gated)", stage)
	}
	if r == nil {
		t.Fatal("greedy floor returned nil — recovery must never be absent")
	}
	// Two rungs down: backup miss + gated optimal.
	if got := recFallback.Load() - before; got != 2 {
		t.Fatalf("recovery_fallback advanced by %d, want 2", got)
	}
}

func TestRecoverDeadlineExhaustedSkipsOptimal(t *testing.T) {
	in := testbedInput(t, nil)
	in.Demands = []*demand.Demand{
		testbedDemand(t, in, 1, "DC1", "DC3", 400, 0.99),
	}
	// A deadline so tight that by the time the optimal stage is reached
	// its budget is gone: the greedy floor still answers.
	r, stage, err := Recover(in, []topo.LinkID{in.Net.Links()[0].ID, in.Net.Links()[1].ID}, RecoverOptions{
		Deadline: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stage != StageGreedy {
		t.Fatalf("stage = %v, want greedy", stage)
	}
	if r == nil {
		t.Fatal("nil recovery result")
	}
}

// TestRecoverOptimalStageOnRevisedEngine: the budgeted optimal rung
// hands the solver its deadline through lp.Options.Cancel, which only
// the revised engine polls (and only it warm-starts a branch-and-bound
// child from its parent), so a double failure that misses the backups
// must never be solved on the dense tableau.
func TestRecoverOptimalStageOnRevisedEngine(t *testing.T) {
	if v := os.Getenv("LP_CROSSCHECK"); v != "" && v != "0" {
		t.Skip("LP_CROSSCHECK runs the dense engine beside every solve")
	}
	in := testbedInput(t, nil)
	in.Demands = []*demand.Demand{
		testbedDemand(t, in, 1, "DC1", "DC3", 400, 0.99),
		testbedDemand(t, in, 2, "DC2", "DC6", 300, 0.95),
	}
	links := in.Net.Links()
	before := metrics.Snapshot()
	_, stage, err := Recover(in, []topo.LinkID{links[0].ID, links[1].ID}, RecoverOptions{Deadline: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	after := metrics.Snapshot()
	if stage != StageOptimal {
		t.Fatalf("stage = %v, want optimal", stage)
	}
	if d := after["lp.pivots_dense"] - before["lp.pivots_dense"]; d != 0 {
		t.Fatalf("optimal recovery spent %d pivots on the dense tableau", d)
	}
	if d := after["lp.pivots_revised"] - before["lp.pivots_revised"]; d == 0 {
		t.Fatal("optimal recovery spent no pivots on the revised engine")
	}
}

// TestRecoverOptimalStageAbortsAtBudget: a solve that cannot finish
// inside its budget loses the race and is aborted from inside the pivot
// loop, instead of running on in the background to its node budget.
func TestRecoverOptimalStageAbortsAtBudget(t *testing.T) {
	// B4 with demands heavy enough that failing two loaded links leaves
	// seconds of branch and bound (20000 nodes).
	n := topo.B4()
	gen := demand.NewGenerator(n, demand.GeneratorConfig{
		ArrivalsPerMinute: 0.02, MeanDurationSec: 1e9, // all demands concurrent
		MinBandwidth: 200, MaxBandwidth: 800,
		Targets: []float64{0.95, 0.99, 0.999},
	}, rand.New(rand.NewSource(9)))
	in := &alloc.Input{Net: n, Tunnels: routing.Compute(n, routing.KShortest, 4), Demands: gen.Generate(3600)}
	opts := RecoverOptions{Deadline: 5 * time.Millisecond}
	before := metrics.Snapshot()["lp.aborts"]
	start := time.Now()
	if r := recoverOptimalBudgeted(in, []topo.LinkID{6, 7}, &opts, start); r != nil {
		t.Fatal("optimal stage answered inside a 4ms budget: the instance is too easy for this test")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("optimal stage took %v to give up a 4ms budget", d)
	}
	for wait := time.Now().Add(10 * time.Second); metrics.Snapshot()["lp.aborts"] == before; {
		if time.Now().After(wait) {
			t.Fatal("the losing solve was never aborted: it runs on to its node budget")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestScheduleGate(t *testing.T) {
	in := fig2Input(t)
	denied := errors.New("no solver budget")
	_, _, err := Schedule(in, ScheduleOptions{MaxFail: 2, Gate: func(op string) error {
		if op != "schedule" {
			t.Fatalf("gate consulted for %q, want schedule", op)
		}
		return denied
	}})
	if !errors.Is(err, denied) {
		t.Fatalf("gated schedule returned %v, want wrapped denial", err)
	}
	// A passing gate leaves the solve untouched.
	a, _, err := Schedule(in, ScheduleOptions{MaxFail: 2, Gate: func(string) error { return nil }})
	if err != nil || a == nil {
		t.Fatalf("open gate: %v", err)
	}
}
