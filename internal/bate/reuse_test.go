package bate

import (
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/routing"
	"bate/internal/topo"
)

// b4ChurnBook is the ledger's b4_deep shape: a B4 book of n single-pair
// demands, and a change that withdraws the oldest demands and admits as
// many new ones.
func b4ChurnBook(n int) (*alloc.Input, func(withdraw, admit int)) {
	net := topo.B4()
	in := &alloc.Input{Net: net, Tunnels: routing.Compute(net, routing.KShortest, 4)}
	rng := rand.New(rand.NewSource(1))
	pairs := net.Pairs()
	targets := []float64{0.9, 0.95, 0.99, 0.999}
	nextID := 0
	change := func(withdraw, admit int) {
		in.Demands = append([]*demand.Demand(nil), in.Demands[withdraw:]...)
		for i := 0; i < admit; i++ {
			p := pairs[rng.Intn(len(pairs))]
			bw := 50 + 150*rng.Float64()
			nextID = nextID%4095 + 1
			in.Demands = append(in.Demands, &demand.Demand{
				ID: nextID, Pairs: []demand.PairDemand{{Src: p[0], Dst: p[1], Bandwidth: bw}},
				Target: targets[rng.Intn(len(targets))], Charge: bw, RefundFrac: 0.1,
			})
		}
	}
	change(0, n)
	return in, change
}

// TestScheduleResultsOutliveRounds: a long-lived Scheduler reassembles
// and re-solves every round in the memory of the round before, so a
// round's allocation and stats must share none of it. Each round's
// result is compared with a deep copy taken when it was returned, three
// rounds later.
func TestScheduleResultsOutliveRounds(t *testing.T) {
	if v := os.Getenv("LP_CROSSCHECK"); v != "" && v != "0" {
		t.Skip("LP_CROSSCHECK adds a dense solve of this 3 218-row LP to every round and checks nothing it checks")
	}
	in, change := b4ChurnBook(200)
	opts := ScheduleOptions{MaxFail: 2}
	sched := NewScheduler()
	type result struct {
		a, saved      alloc.Allocation
		stats, saved2 ScheduleStats
	}
	var kept []result
	for round := 0; round < 8; round++ {
		if round > 0 {
			change(8, 8)
		}
		a, stats, err := sched.Schedule(in, opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if sched.p == nil {
			t.Fatalf("round %d: the Scheduler kept no problem (%d rows)", round, stats.Constraints)
		}
		kept = append(kept, result{a: a, saved: a.Clone(), stats: *stats, saved2: *stats})
		if n := len(kept) - 4; n >= 0 {
			r := kept[n]
			if !reflect.DeepEqual(r.a, r.saved) || r.stats != r.saved2 {
				t.Fatalf("round %d's result changed by round %d", n, round)
			}
		}
	}
}

// warmRoundBytes is what a warm B4 round may allocate (bytes, averaged
// over 20 rounds): twice the ~265 KB measured on amd64 for rounds
// reassembled on the Scheduler's buffers, over half of it the basis
// snapshot, so that the garbage the reuse took off the round (4.5 MB)
// cannot creep back unnoticed.
const warmRoundBytes = 2 * 265 << 10

// TestWarmRoundAllocationGuard averages the bytes a long-lived
// Scheduler allocates per warm round of the B4 churn book (200
// demands, 8 withdrawn and 8 admitted per round) over 20 rounds. The
// result, its basis and the solution it is read from are fresh every
// round; everything else reuses the round before's memory.
func TestWarmRoundAllocationGuard(t *testing.T) {
	if v := os.Getenv("LP_CROSSCHECK"); v != "" && v != "0" {
		t.Skip("LP_CROSSCHECK runs the dense engine beside every solve")
	}
	in, change := b4ChurnBook(200)
	opts := ScheduleOptions{MaxFail: 2}
	sched := NewScheduler()
	round := func() {
		change(8, 8)
		if _, stats, err := sched.Schedule(in, opts); err != nil || !stats.WarmStarted {
			t.Fatalf("round: %v (warm %v)", err, stats != nil && stats.WarmStarted)
		}
	}
	if _, _, err := sched.Schedule(in, opts); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		round() // the buffers grow to the book's size
	}
	const rounds = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		round()
	}
	runtime.ReadMemStats(&after)
	perRound := (after.TotalAlloc - before.TotalAlloc) / rounds
	t.Logf("%d bytes per warm round (bound %d)", perRound, warmRoundBytes)
	if perRound > warmRoundBytes {
		t.Fatalf("a warm round allocates %d bytes, more than %d", perRound, warmRoundBytes)
	}
}

// TestSmallLPKeepsNothing: a Scheduler whose global LP has fewer than
// keepRows rows keeps neither the problem nor the assembler between
// rounds (see keepRows), and still warm-starts.
func TestSmallLPKeepsNothing(t *testing.T) {
	in, change := b4ChurnBook(30)
	opts := ScheduleOptions{MaxFail: 2}
	sched := NewScheduler()
	for round := 0; round < 3; round++ {
		if round > 0 {
			change(2, 2)
		}
		_, stats, err := sched.Schedule(in, opts)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if stats.Constraints >= keepRows || sched.p != nil || sched.asm.demands != nil {
			t.Fatalf("round %d: %d rows, problem kept %v", round, stats.Constraints, sched.p != nil)
		}
		if round > 0 && !stats.WarmStarted {
			t.Fatalf("round %d went cold", round)
		}
	}
}
