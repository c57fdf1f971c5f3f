package bate

import (
	"math"
	"sync"
	"testing"
	"time"

	"bate/internal/alloc"
	"bate/internal/lp"
	"bate/internal/topo"
)

// rung runs Recover's optimal stage on in under down with the backups
// bs, with a deadline no test solve reaches.
func rung(t *testing.T, in *alloc.Input, down []topo.LinkID, bs *BackupSet) *RecoveryResult {
	t.Helper()
	r := recoverOptimalBudgeted(in, down, &RecoverOptions{Backups: bs, Deadline: time.Hour}, time.Now())
	if r == nil {
		t.Fatalf("optimal stage gave no recovery for %v", down)
	}
	return r
}

// checkRecoveryFeasible fails when r puts rate on a tunnel over a failed
// link or loads a link past its capacity (0 when drained).
func checkRecoveryFeasible(t *testing.T, in *alloc.Input, down []topo.LinkID, r *RecoveryResult) {
	t.Helper()
	failed := downSet(down)
	caps := alloc.FullCapacities(in)
	load := make([]float64, len(caps))
	for _, d := range in.Demands {
		for pi, row := range r.Alloc[d.ID] {
			for ti, t0 := range in.TunnelsFor(d, pi) {
				f := row[ti]
				if f == 0 {
					continue
				}
				for _, e := range t0.Links {
					if failed[e] {
						t.Fatalf("%v: demand %d puts %.3g on failed link %d", down, d.ID, f, e)
					}
					load[e] += f
				}
			}
		}
	}
	for e, l := range load {
		if l > caps[e]+1e-6*math.Max(1, caps[e]) {
			t.Fatalf("%v: link %d carries %.9g over its capacity %.9g", down, e, l, caps[e])
		}
	}
}

// The optimal rung on the round's retained model — every failure of
// rootCases' books as planned and after 8 withdraws — reaches cold
// RecoverOptimal's profit, takes no more pivots than the rung that
// rebuilds Eq. 12 and warms it from the same root, and routes nothing
// over a failed link or past a capacity.
func TestRetainedModelMatchesColdRecovery(t *testing.T) {
	for _, tc := range rootCases() {
		bs := &BackupSet{}
		if _, _, err := bs.PlanRoot(tc.in, nil); err != nil {
			t.Fatal(err)
		}
		for _, book := range []struct {
			name string
			in   *alloc.Input
		}{
			{"planned", tc.in},
			{"withdrawn", tc.in.WithDemands(tc.in.Demands[8:])},
		} {
			retained, rebuilt := 0, 0
			var retainedTime, rebuiltTime time.Duration
			for _, down := range tc.failures {
				want, err := RecoverOptimal(book.in, down)
				if err != nil {
					t.Fatal(err)
				}
				start := time.Now()
				got := rung(t, book.in, down, bs)
				retainedTime += time.Since(start)
				if got.Model != ModelRound {
					t.Fatalf("%s/%s %v: the rung solved %v", tc.name, book.name, down, got.Model)
				}
				start = time.Now()
				ref, err := RecoverOptimalOpts(book.in, down, lp.Options{Warm: bs.Root})
				rebuiltTime += time.Since(start)
				if err != nil {
					t.Fatal(err)
				}
				if d := math.Abs(got.Profit - want.Profit); d > 1e-6*math.Max(1, math.Abs(want.Profit)) {
					t.Errorf("%s/%s %v: profit %.9g on the round's model, %.9g cold", tc.name, book.name, down, got.Profit, want.Profit)
				}
				if got.Iterations > ref.Iterations {
					t.Errorf("%s/%s %v: %d pivots on the round's model, %d rebuilt", tc.name, book.name, down, got.Iterations, ref.Iterations)
				}
				if !got.WarmRoot {
					t.Errorf("%s/%s %v: the rung did not start from the planned root", tc.name, book.name, down)
				}
				if len(got.Alloc) != len(book.in.Demands) {
					t.Errorf("%s/%s %v: %d demands allocated, the book holds %d", tc.name, book.name, down, len(got.Alloc), len(book.in.Demands))
				}
				checkRecoveryFeasible(t, book.in, down, got)
				retained += got.Iterations
				rebuilt += ref.Iterations
			}
			n := time.Duration(len(tc.failures))
			t.Logf("%-16s %-9s %3d failures: %5d pivots (%v each) on the round's model, %5d (%v each) rebuilt",
				tc.name, book.name, n, retained, retainedTime/n, rebuilt, rebuiltTime/n)
		}
	}
}

// The rung rebuilds Eq. 12 for a book the round did not plan — one
// with admits since, or another drain set — and without a plan, and
// says why; the rebuilt model still reaches the cold optimum.
func TestRungRebuildsOffThePlannedBook(t *testing.T) {
	tc := rootCases()[0]
	bs := &BackupSet{}
	if _, _, err := bs.PlanRoot(tc.in, nil); err != nil {
		t.Fatal(err)
	}
	down := tc.failures[len(tc.failures)-1]
	for _, c := range []struct {
		in   *alloc.Input
		bs   *BackupSet
		want RecoveryModel
	}{
		{tc.churned, bs, ModelBookChanged},
		{tc.drained, bs, ModelDrainsChanged},
		{tc.in, nil, ModelNoPlan},
		{tc.in, &BackupSet{}, ModelNoPlan},
		{tc.in, bs, ModelRound},
	} {
		got := rung(t, c.in, down, c.bs)
		if got.Model != c.want {
			t.Errorf("the rung solved %v, want %v", got.Model, c.want)
		}
		want, err := RecoverOptimal(c.in, down)
		if err != nil {
			t.Fatal(err)
		}
		if d := math.Abs(got.Profit - want.Profit); d > 1e-6*math.Max(1, math.Abs(want.Profit)) {
			t.Errorf("%v: profit %.9g, %.9g cold", c.want, got.Profit, want.Profit)
		}
		checkRecoveryFeasible(t, c.in, down, got)
	}
}

// Two failures may solve the round's model at once: a budgeted rung
// can outlive its deadline while the next failure's starts. Run under
// -race; each must give what it gives alone.
func TestRetainedModelConcurrentSolves(t *testing.T) {
	tc := rootCases()[0]
	bs := &BackupSet{}
	if _, _, err := bs.PlanRoot(tc.in, nil); err != nil {
		t.Fatal(err)
	}
	downs := tc.failures[len(tc.failures)-4:]
	alone := make([]*RecoveryResult, len(downs))
	for i, down := range downs {
		alone[i] = rung(t, tc.in, down, bs)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range downs {
				i := (k + 2*g) % len(downs)
				got := recoverOptimalBudgeted(tc.in, downs[i], &RecoverOptions{Backups: bs, Deadline: time.Hour}, time.Now())
				if got == nil || !sameRecovery(got, alone[i]) || got.Iterations != alone[i].Iterations {
					t.Errorf("%v: a concurrent solve differs from the solve alone", downs[i])
				}
			}
		}()
	}
	wg.Wait()
}
