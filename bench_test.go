// Benchmarks regenerating the paper's tables and figures (one bench
// per artifact; `go test -bench=. -benchmem`) plus ablation benches
// for the design choices DESIGN.md calls out: simplex pivot rules,
// aggregated vs enumerated scheduling, admission strategies, and
// greedy vs optimal failure recovery.
package main

import (
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"bate/internal/alloc"
	"bate/internal/bate"
	"bate/internal/demand"
	"bate/internal/experiments"
	"bate/internal/lp"
	"bate/internal/partition"
	"bate/internal/routing"
	"bate/internal/scenario"
	"bate/internal/sim"
	"bate/internal/topo"
)

// benchOpts shrinks every experiment to benchmark scale.
func benchOpts() experiments.Options {
	return experiments.Options{Quick: true, Seed: 1, Repeats: 2}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	opts := benchOpts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Run(io.Discard, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkTable1Targets(b *testing.B)           { benchExperiment(b, "table1") }
func BenchmarkFig1Weibull(b *testing.B)             { benchExperiment(b, "fig1") }
func BenchmarkFig2Motivating(b *testing.B)          { benchExperiment(b, "fig2") }
func BenchmarkTable3Scheduling(b *testing.B)        { benchExperiment(b, "table3") }
func BenchmarkFig7Admission(b *testing.B)           { benchExperiment(b, "fig7") }
func BenchmarkFig8BwRatioCDF(b *testing.B)          { benchExperiment(b, "fig8") }
func BenchmarkFig9Availability(b *testing.B)        { benchExperiment(b, "fig9") }
func BenchmarkFig10LinkFailures(b *testing.B)       { benchExperiment(b, "fig10") }
func BenchmarkFig11DataLoss(b *testing.B)           { benchExperiment(b, "fig11") }
func BenchmarkFig12AdmissionSim(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkFig13Satisfaction(b *testing.B)       { benchExperiment(b, "fig13") }
func BenchmarkFig14FixedAdmission(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15ProfitAfterFailure(b *testing.B) { benchExperiment(b, "fig15") }
func BenchmarkFig16Pruning(b *testing.B)            { benchExperiment(b, "fig16") }
func BenchmarkFig17SchedulingTime(b *testing.B)     { benchExperiment(b, "fig17") }
func BenchmarkFig18Routing(b *testing.B)            { benchExperiment(b, "fig18") }
func BenchmarkFig19Approx(b *testing.B)             { benchExperiment(b, "fig19") }
func BenchmarkFig20FailureTime(b *testing.B)        { benchExperiment(b, "fig20") }

// --- Ablation benches ---

// randomLP builds a dense feasible LP for the pivot-rule ablation.
func randomLP(n, m int, seed int64) *lp.Problem {
	rng := rand.New(rand.NewSource(seed))
	p := lp.NewProblem()
	p.SetMaximize()
	vars := make([]lp.VarID, n)
	x0 := make([]float64, n)
	for j := range vars {
		x0[j] = rng.Float64() * 10
		vars[j] = p.AddVariable("x", 0, math.Inf(1), rng.Float64())
	}
	for i := 0; i < m; i++ {
		terms := make([]lp.Term, n)
		rhs := 0.0
		for j := 0; j < n; j++ {
			c := rng.Float64()
			terms[j] = lp.Term{Var: vars[j], Coef: c}
			rhs += c * x0[j]
		}
		p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.LE, RHS: rhs})
	}
	return p
}

func benchPivot(b *testing.B, rule lp.PivotRule) {
	p := randomLP(60, 40, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.SolveOpts(lp.Options{Pivot: rule}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimplexPivotDantzig(b *testing.B) { benchPivot(b, lp.Dantzig) }
func BenchmarkSimplexPivotBland(b *testing.B)   { benchPivot(b, lp.Bland) }

// benchScheduleInput builds a moderate scheduling instance on the
// testbed.
func benchScheduleInput() *alloc.Input {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	rng := rand.New(rand.NewSource(3))
	gen := demand.NewGenerator(n, demand.GeneratorConfig{
		ArrivalsPerMinute: 0.05, MeanDurationSec: 1e9, // all demands concurrent
		MinBandwidth: 20, MaxBandwidth: 60,
		Targets: []float64{0.95, 0.99, 0.999},
	}, rng)
	demands := gen.Generate(3600)
	return &alloc.Input{Net: n, Tunnels: ts, Demands: demands}
}

func BenchmarkScheduleAggregated(b *testing.B) {
	in := benchScheduleInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bate.Schedule(in, bate.ScheduleOptions{MaxFail: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScheduleEnumerated(b *testing.B) {
	in := benchScheduleInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := bate.ScheduleEnumerated(in, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchB4Input builds a B4-sized scheduling instance: the 12-node
// Google WAN with a workload large enough that the LP's sparsity (and
// the dense tableau's per-bound rows) dominate solve time.
func benchB4Input() *alloc.Input {
	n := topo.B4()
	ts := routing.Compute(n, routing.KShortest, 4)
	rng := rand.New(rand.NewSource(9))
	gen := demand.NewGenerator(n, demand.GeneratorConfig{
		ArrivalsPerMinute: 0.05, MeanDurationSec: 1e9, // all demands concurrent
		MinBandwidth: 20, MaxBandwidth: 60,
		Targets: []float64{0.95, 0.99, 0.999},
	}, rng)
	demands := gen.Generate(3600)
	return &alloc.Input{Net: n, Tunnels: ts, Demands: demands}
}

// BenchmarkScheduleLP times the one-shot scheduling round on a
// B4-sized book.
func BenchmarkScheduleLP(b *testing.B) {
	in := benchB4Input()
	pivots := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, stats, err := bate.Schedule(in, bate.ScheduleOptions{MaxFail: 2})
		if err != nil {
			b.Fatal(err)
		}
		pivots += stats.Iterations
	}
	b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
}

// churnBook is a B4 book shaped like the ledger's b4_deep workload:
// single-pair demands on uniformly drawn pairs, 50-200 Mbps, four
// target levels. change withdraws the oldest demands and admits as many
// new ones (ids wrap at 12 bits, like the controller's).
type churnBook struct {
	in     *alloc.Input
	rng    *rand.Rand
	pairs  [][2]topo.NodeID
	nextID int
}

func newChurnBook(size int) *churnBook {
	n := topo.B4()
	c := &churnBook{
		in:    &alloc.Input{Net: n, Tunnels: routing.Compute(n, routing.KShortest, 4)},
		rng:   rand.New(rand.NewSource(1)),
		pairs: n.Pairs(),
	}
	c.change(0, size)
	return c
}

func (c *churnBook) change(withdraw, admit int) {
	targets := []float64{0.9, 0.95, 0.99, 0.999}
	c.in.Demands = append([]*demand.Demand(nil), c.in.Demands[withdraw:]...)
	for i := 0; i < admit; i++ {
		p := c.pairs[c.rng.Intn(len(c.pairs))]
		bw := 50 + 150*c.rng.Float64()
		c.nextID = c.nextID%4095 + 1
		c.in.Demands = append(c.in.Demands, &demand.Demand{
			ID: c.nextID, Pairs: []demand.PairDemand{{Src: p[0], Dst: p[1], Bandwidth: bw}},
			Target: targets[c.rng.Intn(len(targets))], Charge: bw, RefundFrac: 0.1,
		})
	}
}

// BenchmarkScheduleChurn times one scheduling round after a 16-op book
// change (8 withdrawals, 8 admissions) on a B4 book of 200: a cold
// bate.Schedule of the new book against a long-lived bate.Scheduler
// that carries its keyed basis from the round before (ISSUE 18: the
// warm round re-solves in ~100 dual pivots instead of ~4000).
func BenchmarkScheduleChurn(b *testing.B) {
	opts := bate.ScheduleOptions{MaxFail: 2}
	for _, warm := range []bool{false, true} {
		name := "cold"
		if warm {
			name = "warm"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			book := newChurnBook(200)
			sched := bate.NewScheduler()
			if _, _, err := sched.Schedule(book.in, opts); err != nil {
				b.Fatal(err)
			}
			pivots, warmRounds := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				book.change(8, 8)
				b.StartTimer()
				var stats *bate.ScheduleStats
				var err error
				if warm {
					_, stats, err = sched.Schedule(book.in, opts)
				} else {
					_, stats, err = bate.Schedule(book.in, opts)
				}
				if err != nil {
					b.Fatal(err)
				}
				pivots += stats.Iterations
				if stats.WarmStarted {
					warmRounds++
				}
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
			b.ReportMetric(float64(warmRounds)/float64(b.N), "warm/op")
		})
	}
}

// benchB4RecoveryInput builds a contended B4 recovery instance: fewer
// but much larger demands than benchB4Input, so failing a well-loaded
// link leaves a fractional root relaxation and branch & bound actually
// explores a tree (the light scheduling workload is root-integral).
func benchB4RecoveryInput() *alloc.Input {
	n := topo.B4()
	ts := routing.Compute(n, routing.KShortest, 4)
	rng := rand.New(rand.NewSource(9))
	gen := demand.NewGenerator(n, demand.GeneratorConfig{
		ArrivalsPerMinute: 0.02, MeanDurationSec: 1e9, // all demands concurrent
		MinBandwidth: 200, MaxBandwidth: 800,
		Targets: []float64{0.95, 0.99, 0.999},
	}, rng)
	return &alloc.Input{Net: n, Tunnels: ts, Demands: gen.Generate(3600)}
}

// BenchmarkMILPRecovery compares cold vs parent-basis warm-started
// branch & bound on the Eq. 12 recovery MILP over B4: warm reports
// fewer total pivots. The node budget bounds the tree; both variants
// explore the same 64 nodes, so the pivot counts isolate the
// warm-start effect. planned rebuilds Eq. 12 for a double failure of
// the ledger's B4 book of 200 and starts it from the root its last
// round planned (BackupSet.PlanRoot), as the optimal rung does on a
// book the round did not plan; retained is the ladder's rung on the
// planned book, bate.Recover solving the failure as bound changes on
// the round's model.
func BenchmarkMILPRecovery(b *testing.B) {
	in := benchB4RecoveryInput()
	failed := []topo.LinkID{6}
	for _, bc := range []struct {
		name string
		opts lp.Options
	}{
		{"cold", lp.Options{ColdStart: true, MaxNodes: 64}},
		{"warm", lp.Options{MaxNodes: 64}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pivots := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := bate.RecoverOptimalOpts(in, failed, bc.opts)
				if err != nil {
					b.Fatal(err)
				}
				pivots += res.Iterations
			}
			b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
		})
	}
	b.Run("planned", func(b *testing.B) {
		in := newChurnBook(200).in
		bs, err := bate.PrecomputeBackups(in, 1, in.Net.NumLinks()*4)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := bs.PlanRoot(in, nil); err != nil {
			b.Fatal(err)
		}
		failed := []topo.LinkID{6, 13}
		opts := lp.Options{Warm: bs.Root}
		pivots := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := bate.RecoverOptimalOpts(in, failed, opts)
			if err != nil {
				b.Fatal(err)
			}
			if !res.WarmRoot {
				b.Fatal("the rung did not start from the planned root")
			}
			pivots += res.Iterations
		}
		b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	})
	b.Run("retained", func(b *testing.B) {
		in := newChurnBook(200).in
		bs, err := bate.PrecomputeBackups(in, 1, in.Net.NumLinks()*4)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := bs.PlanRoot(in, nil); err != nil {
			b.Fatal(err)
		}
		failed := []topo.LinkID{6, 13}
		opts := bate.RecoverOptions{Backups: bs, Deadline: time.Minute}
		pivots := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, stage, err := bate.Recover(in, failed, opts)
			if err != nil {
				b.Fatal(err)
			}
			if stage != bate.StageOptimal || res.Model != bate.ModelRound {
				b.Fatalf("the failure took the %v stage on %v, not the optimal one on the round's model", stage, res.Model)
			}
			pivots += res.Iterations
		}
		b.ReportMetric(float64(pivots)/float64(b.N), "pivots/op")
	})
}

// Admission-strategy ablation: decision latency of the three §3.2
// strategies on the same state.
func benchAdmission(b *testing.B, decide func(*alloc.Input, []*demand.Demand, *demand.Demand) error) {
	in := benchScheduleInput()
	admitted := in.Demands[:len(in.Demands)-1]
	newcomer := in.Demands[len(in.Demands)-1]
	state := &alloc.Input{Net: in.Net, Tunnels: in.Tunnels, Demands: admitted}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decide(state, admitted, newcomer); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdmissionFixed(b *testing.B) {
	benchAdmission(b, func(in *alloc.Input, _ []*demand.Demand, d *demand.Demand) error {
		_, err := bate.AdmitFixed(in, alloc.New(in), d, 2)
		return err
	})
}

func BenchmarkAdmissionConjecture(b *testing.B) {
	benchAdmission(b, func(in *alloc.Input, admitted []*demand.Demand, d *demand.Demand) error {
		bate.Conjecture(in, append(append([]*demand.Demand(nil), admitted...), d))
		return nil
	})
}

func BenchmarkAdmissionOptimal(b *testing.B) {
	benchAdmission(b, func(in *alloc.Input, admitted []*demand.Demand, d *demand.Demand) error {
		_, _, err := bate.AdmitOptimal(in, admitted, d, 1)
		return err
	})
}

// Recovery ablation: greedy 2-approximation vs the exact MILP.
func benchRecoveryInput() (*alloc.Input, topo.LinkID) {
	in := benchScheduleInput()
	return in, topo.LinkID(6) // L4, the flakiest fiber
}

func BenchmarkRecoveryGreedy(b *testing.B) {
	in, link := benchRecoveryInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bate.RecoverGreedy(in, []topo.LinkID{link}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoveryOptimal(b *testing.B) {
	in, link := benchRecoveryInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bate.RecoverOptimal(in, []topo.LinkID{link}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSynth100Book builds the ledger's wide book (bench/workload.go,
// synth100_wide): size unit-priced demands over the distinct pairs of
// a 600-demand locality-biased pool on Synth100, 3 tunnels per pair.
func benchSynth100Book(size int) *alloc.Input {
	n := topo.Synth100()
	seen := make(map[[2]topo.NodeID]bool)
	var pairs [][2]topo.NodeID
	for _, d := range experiments.PartitionWorkload(n, partition.New(n, 10, nil), 600, 1) {
		if p := [2]topo.NodeID{d.Pairs[0].Src, d.Pairs[0].Dst}; !seen[p] {
			seen[p] = true
			pairs = append(pairs, p)
		}
	}
	in := &alloc.Input{Net: n, Tunnels: routing.ComputeForPairs(n, routing.KShortest, 3, pairs)}
	rng := rand.New(rand.NewSource(1))
	targets := []float64{0.9, 0.95, 0.99}
	for i := 0; i < size; i++ {
		p := pairs[rng.Intn(len(pairs))]
		bw := 50 + 150*rng.Float64()
		in.Demands = append(in.Demands, &demand.Demand{
			ID: i, Pairs: []demand.PairDemand{{Src: p[0], Dst: p[1], Bandwidth: bw}},
			Target: targets[rng.Intn(len(targets))], Charge: bw, RefundFrac: 0.1,
		})
	}
	return in
}

// Backup precomputation across every single-link failure (§3.4) on the
// ledger's two backup-heavy books, with the budget the controller
// uses. fits_solved/op against fits_reused/op is the share of the
// one-demand LPs a from-scratch pass solves that the change-propagating
// pass still has to.
func BenchmarkBackupPrecompute(b *testing.B) {
	for _, bc := range []struct {
		name string
		in   *alloc.Input
	}{
		{"Synth100_150", benchSynth100Book(150)},
		{"B4_200", newChurnBook(200).in},
	} {
		b.Run(bc.name, func(b *testing.B) {
			solved, reused := 0, 0
			for i := 0; i < b.N; i++ {
				bs, err := bate.PrecomputeBackups(bc.in, 1, bc.in.Net.NumLinks()*4)
				if err != nil {
					b.Fatal(err)
				}
				solved += bs.FitsSolved
				reused += bs.FitsReused
			}
			b.ReportMetric(float64(solved)/float64(b.N), "fits_solved/op")
			b.ReportMetric(float64(reused)/float64(b.N), "fits_reused/op")
		})
	}
}

// --- Parallel engine benches ---

// benchBatchWorkload builds a batch of concurrent arrivals on the
// testbed for the batch-admission benches.
func benchBatchWorkload() (*alloc.Input, []*demand.Demand) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	rng := rand.New(rand.NewSource(11))
	gen := demand.NewGenerator(n, demand.GeneratorConfig{
		ArrivalsPerMinute: 0.05, MeanDurationSec: 1e9,
		MinBandwidth: 20, MaxBandwidth: 60,
		Targets: []float64{0.9, 0.99, 0.999},
	}, rng)
	batch := gen.Generate(600)
	return &alloc.Input{Net: n, Tunnels: ts}, batch
}

// Batch admission with parallel speculation (AdmitBatch) vs the serial
// per-demand loop it must be decision-identical to. Run with
// `-cpu 1,4,8` to see the speculation speedup.
func BenchmarkAdmitBatch(b *testing.B) {
	in, batch := benchBatchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bate.AdmitBatch(in, alloc.New(in), nil, batch, bate.BatchOptions{MaxFail: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAdmitSerialLoop(b *testing.B) {
	in, batch := benchBatchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cur := alloc.New(in)
		var adm []*demand.Demand
		for _, d := range batch {
			live := &alloc.Input{Net: in.Net, Tunnels: in.Tunnels, Demands: adm}
			res, err := bate.Admit(live, cur, adm, d, 2)
			if err != nil {
				b.Fatal(err)
			}
			if res.Admitted {
				cur[d.ID] = res.NewAlloc
				adm = append(adm, d)
			}
		}
	}
}

// Scenario-class cache: the exponential subset enumeration on a cold
// cache vs the memoized lookup every later round pays.
func BenchmarkClassesCold(b *testing.B) {
	in := benchScheduleInput()
	tunnels := in.AllTunnelsFor(in.Demands[0])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scenario.DefaultClassCache.Reset()
		if _, _, err := scenario.DefaultClassCache.ClassesFor(in.Net, nil, tunnels, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkClassesWarm(b *testing.B) {
	in := benchScheduleInput()
	tunnels := in.AllTunnelsFor(in.Demands[0])
	if _, _, err := scenario.DefaultClassCache.ClassesFor(in.Net, nil, tunnels, 2); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := scenario.DefaultClassCache.ClassesFor(in.Net, nil, tunnels, 2); err != nil || !hit {
			b.Fatalf("want warm cache hit, got hit=%v err=%v", hit, err)
		}
	}
}

// BenchmarkSchedulePartitioned compares the global scheduling LP with
// the hierarchical decomposition on the 300-node synthetic WAN (target:
// >= 3x speedup at <= 2% optimality gap). The speedup is the ratio of
// the global and partitioned ns/op; gap% comes from one paired solve
// before the timed runs.
func BenchmarkSchedulePartitioned(b *testing.B) {
	c := experiments.PartitionCase{Build: topo.Synth300, Regions: 15, Demands: 150}
	in := experiments.PartitionInput(c, 1)
	gOpts := bate.ScheduleOptions{MaxFail: 2}
	pOpts := gOpts
	pOpts.Partition = &partition.Options{Regions: c.Regions}
	global, _, err := bate.Schedule(in, gOpts)
	if err != nil {
		b.Fatal(err)
	}
	parted, _, err := bate.Schedule(in, pOpts)
	if err != nil {
		b.Fatal(err)
	}
	gap := (parted.Total() - global.Total()) / global.Total()
	for _, bc := range []struct {
		name string
		opts bate.ScheduleOptions
	}{{"global", gOpts}, {"partitioned", pOpts}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := bate.Schedule(in, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
			if bc.opts.Partition != nil {
				b.ReportMetric(gap*100, "gap%")
			}
		})
	}
}

// End-to-end time simulation throughput (simulated seconds per run).
func BenchmarkTimeSimSecond(b *testing.B) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	rng := rand.New(rand.NewSource(5))
	gen := demand.NewGenerator(n, demand.GeneratorConfig{ArrivalsPerMinute: 0.1}, rng)
	workload := gen.Generate(120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.RunTimeSim(sim.TimeSimConfig{
			Net: n, Tunnels: ts, Workload: workload,
			HorizonSec: 120, TE: sim.TEConfig{Kind: sim.KindBATE},
			Admission: sim.AdmitBATE, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}
