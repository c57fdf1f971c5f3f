package bate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/partition"
	"bate/internal/routing"
	"bate/internal/topo"
)

// The differential churn harness: a seeded sequence of admissions,
// withdrawals, drains and undrains drives one long-lived Scheduler —
// which carries its keyed basis from round to round — next to a fresh
// Schedule of every book. The two must agree on every round's verdict
// and LP objective, both allocations must fit the links and meet every
// target (Eq. 3-4 always; hardened as the controller hardens them, the
// all-or-nothing availability too), and nearly every changed round must
// have warm-started.

// eq7Objective evaluates the scheduling LP's objective at allocation a
// from the allocation alone: total bandwidth minus each demand's
// availability bonus at the best B the rows allow,
// B = min(1, min over pairs delivered/b) per class. It knows nothing of
// which engine or basis produced a.
func eq7Objective(t *testing.T, in *alloc.Input, a alloc.Allocation, maxFail int) float64 {
	t.Helper()
	obj := a.Total()
	for _, d := range in.Demands {
		if d.Target <= 0 {
			continue
		}
		relaxed, err := alloc.RelaxedAvailability(in, a, d, maxFail)
		if err != nil {
			t.Fatal(err)
		}
		obj -= availabilityBonus(d) * relaxed
	}
	return obj
}

// churnCase is one topology under one capacity regime.
type churnCase struct {
	name   string
	net    *topo.Network
	book   int     // demands held
	bwLo   float64 // bandwidth range
	bwHi   float64
	rounds int
	// binding scales bandwidths until capacity rows are tight and some
	// changes are infeasible; otherwise no link binds.
	binding bool
	part    *partition.Options
}

func churnCases() []churnCase {
	var cases []churnCase
	for _, part := range []*partition.Options{nil, {Regions: 2}} {
		suffix := ""
		if part != nil {
			suffix = "/partitioned"
		}
		cases = append(cases,
			churnCase{"testbed/slack" + suffix, topo.Testbed(), 14, 10, 50, 30, false, part},
			churnCase{"b4/slack" + suffix, topo.B4(), 30, 50, 200, 14, false, part},
			churnCase{"testbed/binding" + suffix, topo.Testbed(), 14, 100, 320, 30, true, part},
			churnCase{"b4/binding" + suffix, topo.B4(), 30, 800, 2400, 14, true, part},
		)
	}
	return cases
}

// churnBook is the evolving admitted set. Demand ids come from a small
// wrapping allocator, so ids — and with them every LP column and row
// name of a demand — are reused for unrelated demands within a run.
type churnBook struct {
	c      churnCase
	rng    *rand.Rand
	in     *alloc.Input
	pairs  [][2]topo.NodeID
	nextID int
}

var churnTargets = []float64{0.9, 0.95, 0.99, 0.999}

func (b *churnBook) newDemand() *demand.Demand {
	used := make(map[int]bool, len(b.in.Demands))
	for _, d := range b.in.Demands {
		used[d.ID] = true
	}
	for {
		b.nextID = b.nextID%(2*b.c.book) + 1
		if !used[b.nextID] {
			break
		}
	}
	p := b.pairs[b.rng.Intn(len(b.pairs))]
	bw := b.c.bwLo + b.rng.Float64()*(b.c.bwHi-b.c.bwLo)
	return &demand.Demand{
		ID: b.nextID, Pairs: []demand.PairDemand{{Src: p[0], Dst: p[1], Bandwidth: bw}},
		Target: churnTargets[b.rng.Intn(len(churnTargets))], Charge: bw, RefundFrac: 0.1,
	}
}

// mutate applies 1-4 random operations and returns an undo.
func (b *churnBook) mutate() (desc string, undo func()) {
	demands := append([]*demand.Demand(nil), b.in.Demands...)
	drained := append([]topo.LinkID(nil), b.in.Drained...)
	undo = func() { b.in.Demands, b.in.Drained = demands, drained }
	for n := 1 + b.rng.Intn(4); n > 0; n-- {
		op := b.rng.Intn(10)
		if len(b.in.Demands) >= b.c.book*3/2 && op < 4 {
			op = 4 // the id space is 2·book: withdraw instead
		}
		switch {
		case op < 4 || len(b.in.Demands) < b.c.book/2:
			d := b.newDemand()
			b.in.Demands = append(append([]*demand.Demand(nil), b.in.Demands...), d)
			desc += fmt.Sprintf(" +d%d", d.ID)
		case op < 8:
			i := b.rng.Intn(len(b.in.Demands))
			desc += fmt.Sprintf(" -d%d", b.in.Demands[i].ID)
			kept := append([]*demand.Demand(nil), b.in.Demands[:i]...)
			b.in.Demands = append(kept, b.in.Demands[i+1:]...)
		case op == 8 && len(b.in.Drained) < 2:
			e := topo.LinkID(b.rng.Intn(b.in.Net.NumLinks()))
			b.in.Drained = append(append([]topo.LinkID(nil), b.in.Drained...), e)
			desc += fmt.Sprintf(" drain e%d", e)
		case len(b.in.Drained) > 0:
			desc += fmt.Sprintf(" undrain e%d", b.in.Drained[0])
			b.in.Drained = append([]topo.LinkID(nil), b.in.Drained[1:]...)
		}
	}
	return desc, undo
}

func TestSchedulerChurnMatchesFresh(t *testing.T) {
	const maxFail = 2
	for _, c := range churnCases() {
		t.Run(c.name, func(t *testing.T) {
			book := &churnBook{
				c: c, rng: rand.New(rand.NewSource(18)),
				in:    &alloc.Input{Net: c.net, Tunnels: routing.Compute(c.net, routing.KShortest, 4)},
				pairs: c.net.Pairs(),
			}
			opts := ScheduleOptions{MaxFail: maxFail, Partition: c.part}
			sched := NewScheduler()
			// Fill the book with what fits.
			for tries := 0; len(book.in.Demands) < c.book && tries < 4*c.book; tries++ {
				before := book.in.Demands
				book.in.Demands = append(append([]*demand.Demand(nil), before...), book.newDemand())
				if _, _, err := sched.Schedule(book.in, opts); err != nil {
					book.in.Demands = before
				}
			}
			changed, warm, infeasible := 0, 0, 0
			for round := 0; round < c.rounds; round++ {
				desc, undo := book.mutate()
				in := book.in
				fresh, _, ferr := Schedule(in, opts)
				kept, stats, kerr := sched.Schedule(in, opts)
				if (ferr == nil) != (kerr == nil) {
					t.Fatalf("round %d (%s): fresh err %v, long-lived err %v", round, desc, ferr, kerr)
				}
				if ferr != nil {
					if !errors.Is(ferr, lp.ErrInfeasible) || !errors.Is(kerr, lp.ErrInfeasible) {
						t.Fatalf("round %d (%s): fresh err %v, long-lived err %v", round, desc, ferr, kerr)
					}
					infeasible++
					undo() // the controller would have rejected the change
					continue
				}
				changed++
				if stats.WarmStarted {
					warm++
				} else {
					t.Logf("round %d (%s): cold, fallback %q", round, desc, stats.WarmFallback)
				}
				fobj, kobj := eq7Objective(t, in, fresh, maxFail), eq7Objective(t, in, kept, maxFail)
				if math.Abs(fobj-kobj) > 1e-9*math.Abs(fobj) {
					t.Fatalf("round %d (%s): objective fresh %.12g, long-lived %.12g (diff %g)", round, desc, fobj, kobj, fobj-kobj)
				}
				for name, a := range map[string]alloc.Allocation{"fresh": fresh, "long-lived": kept} {
					if err := a.CheckCapacity(in, 1e-6); err != nil {
						t.Fatalf("round %d (%s): %s: %v", round, desc, name, err)
					}
					for _, d := range in.Demands {
						relaxed, err := alloc.RelaxedAvailability(in, a, d, maxFail)
						if err != nil {
							t.Fatal(err)
						}
						if relaxed < d.Target-1e-7 {
							t.Fatalf("round %d (%s): %s allocation gives demand %d Eq. 3-4 availability %.9f < %.9f", round, desc, name, d.ID, relaxed, d.Target)
						}
					}
					// The hard guarantee, reached the way the controller
					// reaches it (it keeps the unhardened allocation when
					// Harden finds none). Harden's single greedy pass is
					// only complete while no link binds, at the parent
					// commit too, so the binding cases stop at Eq. 3-4.
					if c.binding {
						continue
					}
					hardened, err := Harden(in, ScheduleOptions{MaxFail: maxFail}, a)
					if errors.Is(err, lp.ErrInfeasible) {
						continue // drained links can put a hard target out of reach
					}
					if err != nil {
						t.Fatalf("round %d (%s): harden %s: %v", round, desc, name, err)
					}
					if err := hardened.CheckCapacity(in, 1e-6); err != nil {
						t.Fatalf("round %d (%s): hardened %s: %v", round, desc, name, err)
					}
					for _, d := range in.Demands {
						ok, err := alloc.Satisfies(in, hardened, d, maxFail)
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							t.Fatalf("round %d (%s): hardened %s allocation misses demand %d's target", round, desc, name, d.ID)
						}
					}
				}
			}
			t.Logf("%d changed rounds, %d warm, %d infeasible changes rolled back", changed, warm, infeasible)
			if changed < c.rounds/2 {
				t.Fatalf("only %d of %d rounds were feasible", changed, c.rounds)
			}
			if warm*10 < changed*9 {
				t.Fatalf("%d of %d changed rounds warm-started, want >= 90%%", warm, changed)
			}
		})
	}
}

// TestSchedulerReusedDemandID: demand ids are 12-bit and reused, so a
// name in the cached basis can come back meaning a different demand —
// here on another pair, with another bandwidth and a target whose class
// structure happens to give the LP the same shape. The basis is a hint:
// the round must warm-start and still equal the fresh solve.
func TestSchedulerReusedDemandID(t *testing.T) {
	in := testbedInput(t, nil)
	in.Demands = testbed6Demands(t, in)
	opts := ScheduleOptions{MaxFail: 2}
	s := NewScheduler()
	if _, _, err := s.Schedule(in, opts); err != nil {
		t.Fatal(err)
	}
	// Withdraw demand 1 (DC2→DC6, 300 Mbps, 0.95) and admit an
	// unrelated demand under the same id.
	for _, reuse := range []*demand.Demand{
		testbedDemand(t, in, 1, "DC6", "DC2", 700, 0.99), // mirrored pair: same column and row counts
		testbedDemand(t, in, 1, "DC5", "DC1", 150, 0.9),
	} {
		next := &alloc.Input{Net: in.Net, Tunnels: in.Tunnels,
			Demands: []*demand.Demand{in.Demands[0], reuse, in.Demands[2]}}
		kept, stats, err := s.Schedule(next, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !stats.WarmStarted {
			t.Fatalf("reused-id round went cold (fallback %q)", stats.WarmFallback)
		}
		fresh, _, err := Schedule(next, ScheduleOptions{MaxFail: 2})
		if err != nil {
			t.Fatal(err)
		}
		fobj, kobj := eq7Objective(t, next, fresh, 2), eq7Objective(t, next, kept, 2)
		if math.Abs(fobj-kobj) > 1e-9*math.Abs(fobj) {
			t.Fatalf("objective fresh %.12g, long-lived %.12g", fobj, kobj)
		}
		if err := kept.CheckCapacity(next, 1e-6); err != nil {
			t.Fatal(err)
		}
		if got := kept.AllocatedFor(reuse, 0); math.Abs(got-reuse.Pairs[0].Bandwidth) > 1e-6 {
			t.Fatalf("reused id allocated %g, want its own %g", got, reuse.Pairs[0].Bandwidth)
		}
	}
}
