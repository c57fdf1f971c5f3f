package bate

import (
	"math/rand"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/parallel"
	"bate/internal/topo"
)

// forcePool pins the process-wide pool at n workers for one test so
// the speculation path is exercised even on single-CPU machines, where
// the auto-sized pool degrades AdmitBatch to the plain serial loop.
func forcePool(t *testing.T, n int) {
	t.Helper()
	parallel.SetDefaultSize(n)
	t.Cleanup(func() { parallel.SetDefaultSize(0) })
}

// serialAdmitReference is the plain one-at-a-time admission loop that
// AdmitBatch must reproduce decision-for-decision, byte-for-byte.
func serialAdmitReference(t *testing.T, in *alloc.Input, current alloc.Allocation, admitted []*demand.Demand, batch []*demand.Demand, maxFail int) []*AdmissionResult {
	t.Helper()
	cur := make(alloc.Allocation, len(current))
	for id, rows := range current {
		cur[id] = rows
	}
	adm := append([]*demand.Demand(nil), admitted...)
	out := make([]*AdmissionResult, 0, len(batch))
	for _, d := range batch {
		live := *in
		live.Demands = adm
		res, err := Admit(&live, cur, adm, d, maxFail)
		if err != nil {
			t.Fatalf("serial admit of %d: %v", d.ID, err)
		}
		out = append(out, res)
		if res.Admitted {
			cur[d.ID] = res.NewAlloc
			adm = append(adm, d)
		}
	}
	return out
}

func randomTestbedBatch(t *testing.T, in *alloc.Input, rng *rand.Rand, firstID, n int) []*demand.Demand {
	t.Helper()
	names := []string{"DC1", "DC2", "DC4", "DC5"}
	batch := make([]*demand.Demand, 0, n)
	for i := 0; i < n; i++ {
		src := names[rng.Intn(len(names))]
		dst := names[rng.Intn(len(names))]
		for dst == src {
			dst = names[rng.Intn(len(names))]
		}
		bw := 100 + float64(rng.Intn(8))*100
		target := []float64{0, 0.9, 0.99, 0.999}[rng.Intn(4)]
		batch = append(batch, testbedDemand(t, in, firstID+i, src, dst, bw, target))
	}
	return batch
}

// TestAdmitBatchMatchesSerial drives randomized batches through both
// the parallel batch path and the serial reference and requires
// identical admit/reject decisions, methods, and allocation bytes. The
// last trials run under a maintenance drain, which every admission —
// speculative or serial — must route around.
func TestAdmitBatchMatchesSerial(t *testing.T) {
	forcePool(t, 4)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		in := testbedInput(t, nil)
		if trial >= 6 {
			dc1, _ := in.Net.NodeByName("DC1")
			dc2, _ := in.Net.NodeByName("DC2")
			l, _ := in.Net.LinkBetween(dc1, dc2)
			in.Drained = []topo.LinkID{l.ID}
		}
		var admitted []*demand.Demand
		current := alloc.Allocation{}
		nextID := 0
		// Several consecutive batches so later ones start from a
		// populated admitted set.
		for round := 0; round < 3; round++ {
			batch := randomTestbedBatch(t, in, rng, nextID, 2+rng.Intn(5))
			nextID += len(batch)
			want := serialAdmitReference(t, in, current, admitted, batch, 2)

			// A conjecture admit ends a batch; re-batch the deferred
			// tail against the advanced state, as a caller with no
			// round to run in between would.
			var decisions []BatchDecision
			for rest := batch; len(rest) > 0; {
				liveIn := *in
				liveIn.Demands = admitted
				got, err := AdmitBatch(&liveIn, current, admitted, rest, BatchOptions{MaxFail: 2})
				if err != nil {
					t.Fatalf("trial %d round %d: %v", trial, round, err)
				}
				if len(got.Decisions)+len(got.Deferred) != len(rest) {
					t.Fatalf("decided %d + deferred %d of %d", len(got.Decisions), len(got.Deferred), len(rest))
				}
				if n := len(got.Deferred); n > 0 && got.Decisions[len(got.Decisions)-1].Result.Method != MethodConjecture {
					t.Fatalf("trial %d round %d: %d deferred without a conjecture admit", trial, round, n)
				}
				// Advance state exactly as a caller would.
				for _, dec := range got.Decisions {
					if dec.Result.Admitted {
						current[dec.Demand.ID] = dec.Result.NewAlloc
						admitted = append(admitted, dec.Demand)
					}
				}
				decisions = append(decisions, got.Decisions...)
				rest = got.Deferred
			}
			for i, dec := range decisions {
				w := want[i]
				if dec.Result.Admitted != w.Admitted || dec.Result.Method != w.Method {
					t.Fatalf("trial %d round %d demand %d: got (%v,%s) want (%v,%s) spec=%v",
						trial, round, dec.Demand.ID, dec.Result.Admitted, dec.Result.Method,
						w.Admitted, w.Method, dec.Speculative)
				}
				if !allocRowsEqual(dec.Result.NewAlloc, w.NewAlloc) {
					t.Fatalf("trial %d round %d demand %d: allocation bytes diverge", trial, round, dec.Demand.ID)
				}
				for pi, row := range dec.Result.NewAlloc {
					for ti, rate := range row {
						for _, e := range in.Drained {
							if rate > 0 && in.TunnelsFor(dec.Demand, pi)[ti].Uses(e) {
								t.Fatalf("trial %d round %d demand %d: %.1f Mbps on drained link %d", trial, round, dec.Demand.ID, rate, e)
							}
						}
					}
				}
			}
		}
	}
}

func allocRowsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestAdmitBatchDefersAfterConjecture forces a conjecture admit and
// checks the batch stops there, deferring the undecided tail.
func TestAdmitBatchDefersAfterConjecture(t *testing.T) {
	forcePool(t, 4)
	// Occupy the network with a deliberately wasteful fixed allocation
	// (the TestAdmitConjectureStep setup) so the batch's first demand
	// fails the fixed check but passes the Algorithm 1 conjecture.
	in0 := testbedInput(t, nil)
	base := testbedDemand(t, in0, 0, "DC1", "DC3", 600, 0.95)
	in := testbedInput(t, []*demand.Demand{base})
	current := alloc.New(in)
	for ti := range in.TunnelsFor(base, 0) {
		current[base.ID][0][ti] = 900
	}
	admitted := []*demand.Demand{base}

	batch := []*demand.Demand{
		testbedDemand(t, in, 1, "DC1", "DC4", 700, 0.95),
		testbedDemand(t, in, 2, "DC2", "DC5", 100, 0.9),
		testbedDemand(t, in, 3, "DC5", "DC6", 100, 0.9),
	}
	liveIn := &alloc.Input{Net: in.Net, Tunnels: in.Tunnels, Demands: admitted}
	got, err := AdmitBatch(liveIn, current, admitted, batch, BatchOptions{MaxFail: 2})
	if err != nil {
		t.Fatal(err)
	}
	conjAt := -1
	for i, dec := range got.Decisions {
		if dec.Result.Method == MethodConjecture {
			conjAt = i
			break
		}
	}
	if conjAt < 0 {
		t.Fatalf("no conjecture admit; decisions: %+v", got.Decisions)
	}
	if conjAt != len(got.Decisions)-1 {
		t.Fatalf("decisions continued past the conjecture admit at %d (total %d)", conjAt, len(got.Decisions))
	}
	if len(got.Decisions)+len(got.Deferred) != len(batch) {
		t.Fatalf("decided %d + deferred %d != batch %d", len(got.Decisions), len(got.Deferred), len(batch))
	}
	for i, d := range got.Deferred {
		if d != batch[conjAt+1+i] {
			t.Fatalf("deferred[%d] is demand %d, want %d", i, d.ID, batch[conjAt+1+i].ID)
		}
	}
}

// TestAdmitBatchEmptyAndAllocations covers the trivial cases.
func TestAdmitBatchEmptyAndAllocations(t *testing.T) {
	in := testbedInput(t, nil)
	got, err := AdmitBatch(in, alloc.Allocation{}, nil, nil, BatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Decisions) != 0 || len(got.Deferred) != 0 {
		t.Fatalf("empty batch produced %+v", got)
	}

	batch := []*demand.Demand{
		testbedDemand(t, in, 0, "DC1", "DC4", 400, 0.9),
		testbedDemand(t, in, 1, "DC2", "DC5", 400, 0.99),
	}
	got, err = AdmitBatch(in, alloc.Allocation{}, nil, batch, BatchOptions{MaxFail: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, dec := range got.Decisions {
		if !dec.Result.Admitted {
			continue
		}
		rows, ok := got.Allocations[dec.Demand.ID]
		if !ok {
			t.Fatalf("admitted demand %d missing from Allocations", dec.Demand.ID)
		}
		if !allocRowsEqual(rows, dec.Result.NewAlloc) {
			t.Fatalf("Allocations[%d] differs from the decision's NewAlloc", dec.Demand.ID)
		}
	}
}
