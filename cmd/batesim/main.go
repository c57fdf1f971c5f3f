// Command batesim runs standalone simulations: the per-second
// testbed-style emulation (§5.1), the event-driven large-scale
// simulation (§5.2), link shadow prices, or the full-stack chaos soak,
// for any built-in topology and TE scheme.
//
// Usage:
//
//	batesim -mode time  -topology Testbed6 -te BATE -horizon 600 -rate 2
//	batesim -mode event -topology B4 -te TEAVAR -admission none -rate 3
//	batesim -mode chaos -chaos-seed 7
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"bate/internal/alloc"
	"bate/internal/bate"
	"bate/internal/chaos/soak"
	"bate/internal/demand"
	"bate/internal/metrics"
	"bate/internal/parallel"
	"bate/internal/partition"
	"bate/internal/routing"
	"bate/internal/sim"
	"bate/internal/topo"
)

func parseTE(s string) (sim.TEKind, error) {
	for _, k := range sim.AllKinds() {
		if strings.EqualFold(k.String(), s) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown TE scheme %q", s)
}

func parseAdmission(s string) (sim.AdmissionMode, error) {
	switch strings.ToLower(s) {
	case "none":
		return sim.AdmitNone, nil
	case "fixed":
		return sim.AdmitFixedOnly, nil
	case "bate":
		return sim.AdmitBATE, nil
	case "opt", "optimal":
		return sim.AdmitOptimal, nil
	}
	return 0, fmt.Errorf("unknown admission mode %q", s)
}

func main() {
	mode := flag.String("mode", "time", "time (per-second §5.1), event (§5.2), prices (link shadow prices), or chaos (full-stack fault-injection soak)")
	topoName := flag.String("topology", "Testbed6", "built-in topology name or topology file path")
	teName := flag.String("te", "BATE", "TE scheme: BATE, FFC, TEAVAR, SWAN, SMORE, B4")
	admName := flag.String("admission", "bate", "admission: none, fixed, bate, opt")
	horizon := flag.Float64("horizon", 600, "simulated seconds")
	rate := flag.Float64("rate", 0.2, "Poisson arrivals per minute per s-d pair")
	durMean := flag.Float64("duration", 300, "mean demand duration (s)")
	bwMin := flag.Float64("bwmin", 10, "min demand bandwidth (Mbps)")
	bwMax := flag.Float64("bwmax", 50, "max demand bandwidth (Mbps)")
	maxFail := flag.Int("maxfail", 2, "scenario pruning depth y")
	seed := flag.Int64("seed", 1, "random seed")
	procs := flag.Int("procs", 0, "worker pool size for parallel admission/scheduling (0 = all cores)")
	workloadIn := flag.String("workload", "", "load the workload from a JSON file instead of generating")
	traceIn := flag.String("trace", "", "replay a link failure trace file (time mode)")
	scenarioName := flag.String("scenario", "", "hostile scenario preset (overrides -workload/-trace/-rate and arms -audit-slo); one of: "+strings.Join(sim.ScenarioFamilies(), ", "))
	scheduleIn := flag.String("schedule", "", "scenario schedule file (srlg/storm/maint/link lines): outages and storms feed the trace, risk groups the failure model of admission, scheduling and the injector, maintenance windows the proactive drain (time mode)")
	srlgFile := flag.String("srlg-file", "", "schedule file read for its srlg groups only: makes admission, scheduling, hardening and the injector correlation-aware without scripting any outages (time mode)")
	srlgStorm := flag.Int("srlg-storm", 0, "generate N seeded SRLG storms over the loaded risk groups (requires -schedule, -srlg-file or -scenario; time mode)")
	auditSLO := flag.Bool("audit-slo", false, "run the online SLO auditor, print the violation breakdown and refund exposure, and fail if the offline recomputation disagrees (time mode)")
	workloadOut := flag.String("save-workload", "", "write the generated workload to a JSON file")
	chaosSeed := flag.Int64("chaos-seed", 0, "seeded fault injection: in time mode, generate a chaos outage trace when -trace is absent; mode 'chaos' runs the full-stack soak under this seed (0 = off)")
	partitions := flag.Int("partitions", 0, "hierarchical scheduling: split the topology into k regions solved in parallel (0/1 = global LP)")
	partitionGap := flag.Float64("partition-gap", 0, "hierarchical scheduling: max relative optimality-gap bound before falling back to the global LP (0 = 2%)")
	flag.Parse()

	if *procs < 0 {
		log.Fatal("batesim: -procs must be >= 0")
	}
	parallel.SetDefaultSize(*procs)

	popts := partitionOptions(*partitions, *partitionGap)
	if *mode == "chaos" {
		runChaosSoak(*chaosSeed, *seed, *partitions)
		return
	}

	net0, err := topo.Resolve(*topoName)
	if err != nil {
		log.Fatal(err)
	}
	kind, err := parseTE(*teName)
	if err != nil {
		log.Fatal(err)
	}
	adm, err := parseAdmission(*admName)
	if err != nil {
		log.Fatal(err)
	}
	tunnels := routing.Compute(net0, routing.KShortest, 4)

	// Assemble the failure schedule: a hostile preset, a schedule file,
	// or an SRLG file (groups only), optionally topped with generated
	// SRLG storms.
	var hostile *sim.HostileScenario
	var sched *sim.Schedule
	if *scenarioName != "" {
		if *workloadIn != "" || *traceIn != "" || *scheduleIn != "" || *srlgFile != "" {
			log.Fatal("batesim: -scenario is a complete preset; drop -workload/-trace/-schedule/-srlg-file")
		}
		hostile, err = sim.BuildHostileScenario(*scenarioName, net0, *horizon, *seed)
		if err != nil {
			log.Fatal(err)
		}
		sched = hostile.Schedule
		*auditSLO = true
	} else if *scheduleIn != "" {
		if *srlgFile != "" || *traceIn != "" {
			log.Fatal("batesim: -schedule already scripts outages; drop -srlg-file/-trace")
		}
		f, err := os.Open(*scheduleIn)
		if err != nil {
			log.Fatal(err)
		}
		sched, err = sim.ParseSchedule(f, net0)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else if *srlgFile != "" {
		f, err := os.Open(*srlgFile)
		if err != nil {
			log.Fatal(err)
		}
		full, err := sim.ParseSchedule(f, net0)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		sched = &sim.Schedule{Groups: full.Groups}
	}
	if *srlgStorm > 0 {
		if sched == nil || len(sched.Groups) == 0 {
			log.Fatal("batesim: -srlg-storm needs risk groups; supply -schedule, -srlg-file or -scenario")
		}
		sched.Storms = append(sched.Storms,
			sim.GenerateSRLGStorms(sched.Groups, *seed, *horizon, *srlgStorm)...)
		fmt.Printf("batesim: generated %d SRLG storms over %d groups\n", *srlgStorm, len(sched.Groups))
	}
	if (sched != nil || *auditSLO) && *mode != "time" {
		log.Fatal("batesim: -scenario/-schedule/-srlg-file/-srlg-storm/-audit-slo apply to -mode time")
	}

	var workload []*demand.Demand
	if hostile != nil {
		workload = hostile.Workload
	} else if *workloadIn != "" {
		f, err := os.Open(*workloadIn)
		if err != nil {
			log.Fatal(err)
		}
		workload, err = demand.Load(f, net0)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
	} else {
		rng := rand.New(rand.NewSource(*seed))
		gen := demand.NewGenerator(net0, demand.GeneratorConfig{
			ArrivalsPerMinute: *rate,
			MeanDurationSec:   *durMean,
			MinBandwidth:      *bwMin,
			MaxBandwidth:      *bwMax,
			Targets:           demand.TestbedTargets,
		}, rng)
		workload = gen.Generate(*horizon)
	}
	if *workloadOut != "" {
		f, err := os.Create(*workloadOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := demand.Save(f, net0, workload); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		log.Printf("batesim: wrote %d demands to %s", len(workload), *workloadOut)
	}
	fmt.Printf("batesim: %s, %s TE, %s admission, %d demands over %.0fs\n",
		net0, kind, adm, len(workload), *horizon)

	var trace []sim.FailureEvent
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			log.Fatal(err)
		}
		ts, err := sim.ParseSchedule(f, net0)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if len(ts.Groups)+len(ts.Storms)+len(ts.Maintenance) > 0 {
			log.Fatalf("batesim: %s declares groups, storms or maintenance; pass it with -schedule", *traceIn)
		}
		trace = ts.Events
	} else if *chaosSeed != 0 {
		// Seed-replayable outage schedule in place of a trace file.
		n := int(*horizon / 60)
		if n < 4 {
			n = 4
		}
		trace = sim.ChaosTrace(net0, *chaosSeed, *horizon, n)
		fmt.Printf("batesim: chaos seed %d: %d scripted outages\n", *chaosSeed, len(trace))
	}

	switch *mode {
	case "time":
		cfg := sim.TimeSimConfig{
			Net: net0, Tunnels: tunnels, Workload: workload,
			HorizonSec: *horizon, ScheduleEverySec: 60,
			TE:        sim.TEConfig{Kind: kind, MaxFail: *maxFail, Partition: popts},
			Admission: adm, MaxFail: *maxFail, Seed: *seed, Trace: trace,
			Audit: *auditSLO,
		}
		if sched != nil {
			// Maintenance windows ride through cfg.Maintenance (drain
			// lead + outage), so strip them before expanding the trace or
			// they would be applied twice.
			noMaint := *sched
			noMaint.Maintenance = nil
			cfg.Trace = append(cfg.Trace, noMaint.AllEvents()...)
			cfg.RiskGroups = sched.Groups
			cfg.Maintenance = sched.Maintenance
			fmt.Printf("batesim: schedule: %d groups, %d storms, %d maintenance windows, %d trace events\n",
				len(sched.Groups), len(sched.Storms), len(sched.Maintenance), len(cfg.Trace))
		}
		res, err := sim.RunTimeSim(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("arrived=%d admitted=%d rejected=%d\n", res.Arrived, res.Admitted, res.Rejected)
		fmt.Printf("satisfaction=%.2f%% loss=%.4f%% profit=%.0f/%.0f\n",
			res.SatisfactionRatio()*100, res.LossRatio*100, res.Profit, res.FullCharge)
		fmt.Printf("mean admission delay=%.2fms\n", metrics.Mean(res.AdmissionDelaysSec)*1000)
		if *auditSLO {
			reportSLO(workload, res)
		}
	case "event":
		res, err := sim.RunEventSim(sim.EventSimConfig{
			Net: net0, Tunnels: tunnels, Workload: workload,
			HorizonSec: *horizon, ScheduleEverySec: 120,
			TE:        sim.TEConfig{Kind: kind, MaxFail: *maxFail, Partition: popts},
			Admission: adm, MaxFail: *maxFail, ProfitSamples: 1, Seed: *seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("arrived=%d admitted=%d rejected=%d\n", res.Arrived, res.Admitted, res.Rejected)
		fmt.Printf("satisfaction=%.2f%% mean-util=%.2f%% mean-profit-after-failure=%.2f%%\n",
			res.SatisfactionRatio()*100, res.MeanUtilization()*100,
			metrics.Mean(res.ProfitRatios)*100)
	case "prices":
		// Treat the whole workload as concurrently active and price
		// every link's capacity at the scheduling optimum.
		in := &alloc.Input{Net: net0, Tunnels: tunnels, Demands: workload}
		prices, err := bate.LinkPrices(in, bate.ScheduleOptions{MaxFail: *maxFail})
		if err != nil {
			log.Fatal(err)
		}
		t := metrics.NewTable("link", "capacity (Mbps)", "shadow price")
		for _, l := range net0.Links() {
			t.AddRow(
				fmt.Sprintf("%s->%s", net0.NodeName(l.Src), net0.NodeName(l.Dst)),
				fmt.Sprintf("%.0f", l.Capacity),
				fmt.Sprintf("%.4f", prices[l.ID]),
			)
		}
		fmt.Print(t.String())
	default:
		log.Fatalf("unknown mode %q", *mode)
	}
}

// reportSLO prints the audit verdict (violations by cause, refund
// exposure) and cross-checks the online auditor against the offline
// recomputation — the command-line face of the zero-unnoticed-
// violations gate. Exits non-zero when the two disagree.
func reportSLO(workload []*demand.Demand, res *sim.TimeSimResult) {
	violations := map[sim.ViolationCause]int{}
	for _, r := range res.SLOReports {
		if r.Violated {
			violations[r.Cause]++
		}
	}
	total := violations[sim.CauseOutage] + violations[sim.CauseCongestion] + violations[sim.CauseShed] + violations[sim.CauseNone]
	fmt.Printf("slo audit: %d demands audited, %d violated (outage=%d congestion=%d shed=%d), refund exposure=%.0f\n",
		len(res.SLOReports), total,
		violations[sim.CauseOutage], violations[sim.CauseCongestion], violations[sim.CauseShed],
		sim.RefundExposure(res.SLOReports))
	offline := sim.RecomputeSLO(workload, res.SLOLog, 0.01)
	if err := sim.CompareSLOReports(res.SLOReports, offline); err != nil {
		fmt.Fprintf(os.Stderr, "SLO AUDIT MISMATCH: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("slo audit: online matches offline recomputation (%d reports)\n", len(offline))
}

// partitionOptions maps the -partitions/-partition-gap flags to
// ScheduleOptions.Partition (nil when partitioning is off).
func partitionOptions(k int, gap float64) *partition.Options {
	if k <= 1 {
		return nil
	}
	return &partition.Options{Regions: k, GapThreshold: gap}
}

// runChaosSoak drives the full controller stack (election, durable
// store, brokers, lossy client) under a seeded fault schedule and
// prints the run report — the command-line face of the chaos soak
// harness in internal/chaos/soak.
func runChaosSoak(chaosSeed, fallbackSeed int64, partitions int) {
	seed := chaosSeed
	if seed == 0 {
		seed = fallbackSeed
	}
	dir, err := os.MkdirTemp("", "batesim-chaos-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rep, err := soak.Run(soak.Config{Seed: seed, Dir: dir, Partitions: partitions, Logf: log.Printf})
	if err != nil {
		log.Fatalf("batesim: chaos soak: %v", err)
	}
	fmt.Printf("chaos soak seed=%d: leader %s (agreed=%v)\n", rep.Seed, rep.Leader, rep.LeaderAgreed)
	fmt.Printf("demands: %d acked, %d rejected, %d withdrawn, %d on final book (epoch %d)\n",
		len(rep.AckedIDs), rep.Rejected, len(rep.WithdrawnIDs), len(rep.FinalIDs), rep.FinalEpoch)
	fmt.Printf("recovery: %d down events -> %d backup hits, %d optimal, %d greedy (%d fallbacks, max %dms)\n",
		rep.DownEvents, rep.BackupHits, rep.Optimal, rep.Greedy, rep.Fallbacks, rep.MaxRecoveryMs)
	fmt.Printf("degraded modes: %d solver denials, %d broker reconnects, %d WAL repairs, %d append retries\n",
		rep.SolverDenials, rep.Reconnects, rep.StoreRepairs, rep.AppendRetries)
	fmt.Printf("end-state digest: %s\n", rep.Digest)
}
