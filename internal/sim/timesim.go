package sim

import (
	"fmt"
	"math/rand"
	"sort"

	"bate/internal/alloc"
	"bate/internal/bate"
	"bate/internal/demand"
	"bate/internal/pricing"
	"bate/internal/routing"
	"bate/internal/scenario"
	"bate/internal/topo"
)

// AdmissionMode selects the admission-control strategy a simulation
// applies to arriving demands.
type AdmissionMode int8

// Admission modes compared in Figs. 7(a) and 12.
const (
	// AdmitNone disables admission control: every demand becomes
	// active (the Fig. 13 setting for baseline TE schemes).
	AdmitNone AdmissionMode = iota
	// AdmitFixedOnly is step (1) only: admit iff the remaining
	// capacity satisfies the demand with allocations held fixed.
	AdmitFixedOnly
	// AdmitBATE is the full §3.2 strategy: fixed check, then the
	// Algorithm 1 conjecture.
	AdmitBATE
	// AdmitOptimal solves the Appendix A MILP per arrival.
	AdmitOptimal
)

func (m AdmissionMode) String() string {
	switch m {
	case AdmitNone:
		return "None"
	case AdmitFixedOnly:
		return "Fixed"
	case AdmitBATE:
		return "BATE"
	case AdmitOptimal:
		return "OPT"
	}
	return "unknown"
}

// admitWith runs admission mode m for d against the current state,
// which it does not mutate; both simulators decide arrivals through it.
func admitWith(m AdmissionMode, in *alloc.Input, current alloc.Allocation, active []*demand.Demand, d *demand.Demand, maxFail int) (*bate.AdmissionResult, error) {
	switch m {
	case AdmitNone:
		return &bate.AdmissionResult{Admitted: true, Method: "none"}, nil
	case AdmitFixedOnly:
		return bate.AdmitFixed(in, current, d, maxFail)
	case AdmitBATE:
		return bate.Admit(in, current, active, d, maxFail)
	case AdmitOptimal:
		res, _, err := bate.AdmitOptimal(in, active, d, min(maxFail, 1))
		return res, err
	}
	return nil, fmt.Errorf("sim: unknown admission mode %d", m)
}

// TimeSimConfig drives the per-second testbed-style simulation (§5.1).
type TimeSimConfig struct {
	Net     *topo.Network
	Tunnels *routing.TunnelSet
	// Workload is the time-ordered demand arrivals (IDs must be dense
	// and unique).
	Workload []*demand.Demand
	// HorizonSec is the simulated duration.
	HorizonSec float64
	// ScheduleEverySec is the traffic-scheduling period (testbed: 60).
	ScheduleEverySec float64
	// RepairSec is the link repair time x (default 3; Fig. 20 sweeps
	// 0.5..4).
	RepairSec float64
	TE        TEConfig
	Admission AdmissionMode
	// MaxFail is the pruning depth used by admission.
	MaxFail int
	// Tolerance is the satisfied-second threshold: a second counts as
	// satisfied when delivered ≥ (1-Tolerance)·b (paper: 1%).
	Tolerance float64
	Seed      int64
	// DisableRecovery turns off BATE's backup-based failure reaction
	// (the BATE-TS variant of Fig. 9).
	DisableRecovery bool
	// Trace pre-loads scripted link outages replayed on top of (or,
	// with zero failure probabilities, instead of) the Bernoulli
	// failure process.
	Trace []FailureEvent
	// RiskGroups is the run's one shared-risk failure model: groups with
	// Prob > 0 fire whole in the injector every second, and every
	// alloc.Input the run builds carries all of them, so admission,
	// scheduling, hardening and the TE baselines' class lookups plan
	// against the same correlated failures the injector produces.
	RiskGroups []scenario.RiskGroup
	// Maintenance schedules planned windows: each link is reported as
	// drained (zero capacity) from StartSec-LeadSec — forcing an
	// immediate reschedule that routes traffic off it — and is down
	// during [StartSec, EndSec).
	Maintenance []MaintenanceWindow
	// Audit attaches the online SLO auditor: per-demand achieved
	// availability, violation causes and refund exposure appear in
	// TimeSimResult.SLOReports, with the raw per-second observations in
	// SLOLog for offline recomputation.
	Audit bool
}

func (c TimeSimConfig) defaults() TimeSimConfig {
	if c.HorizonSec <= 0 {
		c.HorizonSec = 600
	}
	if c.ScheduleEverySec <= 0 {
		c.ScheduleEverySec = 60
	}
	if c.RepairSec <= 0 {
		c.RepairSec = 3
	}
	if c.MaxFail <= 0 {
		c.MaxFail = 2
	}
	if c.Tolerance <= 0 {
		c.Tolerance = 0.01
	}
	c.TE = c.TE.Defaults()
	return c
}

// DemandOutcome summarizes one demand at the end of a simulation.
type DemandOutcome struct {
	ID         int
	Target     float64
	Charge     float64
	RefundFrac float64
	Admitted   bool
	Method     bate.AdmissionMethod
	ActiveSec  int
	// SatisfiedSec counts seconds with full (within tolerance)
	// delivery on every pair.
	SatisfiedSec int
	// Availability is SatisfiedSec/ActiveSec.
	Availability float64
	// Violated reports Availability < Target.
	Violated bool
	// Profit is the post-refund revenue r_d.
	Profit float64
}

// TimeSimResult aggregates a run.
type TimeSimResult struct {
	Outcomes  []DemandOutcome
	Arrived   int
	Admitted  int
	Rejected  int
	ByMethod  map[bate.AdmissionMethod]int
	FailCount []int // per link (Fig. 10)
	// LossRatio is lost/offered traffic over the run (Fig. 11).
	LossRatio float64
	// BwRatios samples min-pair allocated/demanded per admitted demand
	// per scheduling epoch (Fig. 8).
	BwRatios []float64
	// AdmissionDelaysSec records wall-clock admission latency.
	AdmissionDelaysSec []float64
	// UtilSamples records mean link utilization at scheduling epochs.
	UtilSamples []float64
	// Profit and FullCharge give the run's revenue after refunds and
	// the theoretical maximum.
	Profit     float64
	FullCharge float64
	// ExpiredOnArrival counts demands whose whole lifetime fell between
	// two simulation ticks: they arrive already expired and are never
	// activated (no capacity held, no phantom active second).
	ExpiredOnArrival int
	// SLOReports/SLOLog are filled when TimeSimConfig.Audit is set.
	SLOReports []SLOReport
	SLOLog     []SLOObservation
}

// SatisfactionRatio returns the fraction of admitted demands meeting
// their availability target over their lifetime.
func (r *TimeSimResult) SatisfactionRatio() float64 {
	total, ok := 0, 0
	for _, o := range r.Outcomes {
		if !o.Admitted || o.ActiveSec == 0 {
			continue
		}
		total++
		if !o.Violated {
			ok++
		}
	}
	if total == 0 {
		return 1
	}
	return float64(ok) / float64(total)
}

// RunTimeSim executes the per-second simulation.
func RunTimeSim(cfg TimeSimConfig) (*TimeSimResult, error) {
	cfg = cfg.defaults()
	if cfg.TE.Kind == KindBATE && cfg.TE.Scheduler == nil {
		// One basis cache for the whole run: consecutive scheduling
		// epochs differ by a handful of arrivals/departures, so each
		// epoch warm-starts from the previous optimal basis whenever the
		// LP shape is unchanged.
		cfg.TE.Scheduler = bate.NewScheduler()
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	injector := NewFailureInjector(cfg.Net, cfg.RepairSec, rng)
	if len(cfg.Trace) > 0 {
		injector.ApplyTrace(cfg.Trace)
	}
	for _, g := range cfg.RiskGroups {
		if g.Prob > 0 {
			injector.AddRiskGroup(g.Links, g.Prob)
		}
	}
	if len(cfg.Maintenance) > 0 {
		// The planned outage itself is a scripted trace event; the
		// proactive drain is handled in the main loop.
		events := make([]FailureEvent, 0, len(cfg.Maintenance))
		for _, m := range cfg.Maintenance {
			events = append(events, FailureEvent{Link: m.Link, DownAt: m.StartSec, UpAt: m.EndSec})
		}
		injector.ApplyTrace(events)
	}
	var auditor *SLOAuditor
	if cfg.Audit {
		auditor = NewSLOAuditor(cfg.Tolerance)
	}

	// Sort workload by start time.
	workload := append([]*demand.Demand(nil), cfg.Workload...)
	sort.Slice(workload, func(i, j int) bool { return workload[i].Start < workload[j].Start })

	res := &TimeSimResult{ByMethod: make(map[bate.AdmissionMethod]int)}
	outcomes := make(map[int]*DemandOutcome)

	var active []*demand.Demand
	var drained []topo.LinkID
	input := func() *alloc.Input {
		return &alloc.Input{Net: cfg.Net, Tunnels: cfg.Tunnels, Demands: active, Drained: drained, Groups: cfg.RiskGroups}
	}
	// drainSet lists the links inside a maintenance drain window
	// (lead-in through end) at time now, in cfg.Maintenance order.
	drainSet := func(now float64) []topo.LinkID {
		var out []topo.LinkID
		for _, m := range cfg.Maintenance {
			if now >= m.StartSec-m.LeadSec && now < m.EndSec {
				out = append(out, m.Link)
			}
		}
		return out
	}
	sameLinks := func(a, b []topo.LinkID) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	current := alloc.Allocation{} // scheduled allocation
	var backups *bate.BackupSet
	rates := sendRates{}
	nextArrival := 0
	var offeredTotal, lostTotal float64

	reschedule := func() error {
		in := input()
		a, err := cfg.TE.Allocate(in)
		if err != nil {
			return fmt.Errorf("sim: reschedule: %w", err)
		}
		current = a
		if cfg.TE.Kind == KindBATE && !cfg.DisableRecovery {
			// The controller's §3.4 policy: single-link backups for the
			// book just scheduled. A failure after an admit or a drain
			// misses them and recovers from scratch.
			if backups, err = bate.PrecomputeBackups(in, 1, 0); err != nil {
				return fmt.Errorf("sim: backups: %w", err)
			}
		}
		rates = ratesFromAlloc(in, current, func(t routing.Tunnel) bool { return injector.TunnelUp(t) })
		// Fig. 8 samples.
		for _, d := range active {
			minRatio := 1.0
			for pi, pr := range d.Pairs {
				if pr.Bandwidth <= 0 {
					continue
				}
				r := current.AllocatedFor(d, pi) / pr.Bandwidth
				if r < minRatio {
					minRatio = r
				}
			}
			res.BwRatios = append(res.BwRatios, minRatio)
		}
		res.UtilSamples = append(res.UtilSamples, current.MeanUtilization(in))
		return nil
	}

	react := func() {
		in := input()
		down := injector.Down()
		up := func(t routing.Tunnel) bool { return injector.TunnelUp(t) }
		switch {
		case len(down) == 0:
			rates = ratesFromAlloc(in, current, up)
		case cfg.TE.Kind == KindBATE && !cfg.DisableRecovery:
			if b, ok := backups.For(in, down); ok {
				rates = ratesFromAlloc(in, b.Alloc, up)
			} else if rec, err := bate.RecoverGreedy(in, down); err == nil {
				rates = ratesFromAlloc(in, rec.Alloc, up)
			} else {
				rates = ratesFromAlloc(in, current, up)
			}
		case cfg.TE.Kind == KindFFC || (cfg.TE.Kind == KindBATE && cfg.DisableRecovery):
			// No rescaling: surviving tunnels keep their allocation.
			rates = ratesFromAlloc(in, current, up)
		default:
			// Capacity-unaware proportional rescaling (congestion risk).
			rates = rescaleProportional(in, current, up)
		}
	}

	lastSchedule := -cfg.ScheduleEverySec
	for now := 0.0; now < cfg.HorizonSec; now++ {
		// Maintenance drains: when the drained set changes (a lead-in
		// begins or a window ends), force a reschedule this second so
		// traffic moves off the link before it goes down — the
		// proactive half of a planned maintenance window.
		forceReschedule := false
		if len(cfg.Maintenance) > 0 {
			if nd := drainSet(now); !sameLinks(nd, drained) {
				drained = nd
				forceReschedule = true
			}
		}

		// Departures.
		kept := active[:0]
		for _, d := range active {
			if d.End <= now {
				continue
			}
			kept = append(kept, d)
		}
		active = kept

		// Arrivals. The bookkeeping for one decision is shared between
		// the batched and per-demand paths.
		applyDecision := func(d *demand.Demand, adRes *bate.AdmissionResult) {
			res.Arrived++
			out := &DemandOutcome{ID: d.ID, Target: d.Target, Charge: d.Charge, RefundFrac: d.RefundFrac}
			outcomes[d.ID] = out
			res.AdmissionDelaysSec = append(res.AdmissionDelaysSec, adRes.Elapsed.Seconds())
			res.ByMethod[adRes.Method]++
			if !adRes.Admitted {
				res.Rejected++
				return
			}
			res.Admitted++
			out.Admitted = true
			out.Method = adRes.Method
			if auditor != nil {
				auditor.Track(d)
			}
			active = append(active, d)
			if adRes.NewAlloc != nil {
				current[d.ID] = adRes.NewAlloc
				rates[d.ID] = adRes.NewAlloc
			}
		}
		var arrivals []*demand.Demand
		for nextArrival < len(workload) && workload[nextArrival].Start <= now {
			d := workload[nextArrival]
			nextArrival++
			if d.End <= now {
				// The demand's whole lifetime fell between two ticks:
				// it expired before this tick, so activating it would
				// hold capacity and charge a phantom active second
				// entirely outside [Start, End). Record the arrival
				// without running admission.
				res.Arrived++
				res.ExpiredOnArrival++
				outcomes[d.ID] = &DemandOutcome{ID: d.ID, Target: d.Target, Charge: d.Charge, RefundFrac: d.RefundFrac}
				continue
			}
			arrivals = append(arrivals, d)
		}
		if cfg.Admission == AdmitBATE {
			// The controller's submit loop: same-second arrivals are
			// one batch, decided exactly as one at a time. A conjecture
			// admit ends the batch and triggers a round (its temporary
			// allocation may be below b_d, §3.2 footnote 5); the rest
			// is re-batched against the rescheduled state.
			for len(arrivals) > 0 {
				br, err := bate.AdmitBatch(input(), current, active, arrivals, bate.BatchOptions{MaxFail: cfg.MaxFail})
				if err != nil {
					return nil, err
				}
				for _, dec := range br.Decisions {
					applyDecision(dec.Demand, dec.Result)
				}
				if br.EndsInConjecture() {
					if err := reschedule(); err != nil {
						return nil, err
					}
					lastSchedule = now
				}
				arrivals = br.Deferred
			}
		} else {
			for _, d := range arrivals {
				adRes, err := admitWith(cfg.Admission, input(), current, active, d, cfg.MaxFail)
				if err != nil {
					return nil, err
				}
				applyDecision(d, adRes)
			}
		}

		// Periodic scheduling (or a forced drain reschedule).
		if forceReschedule || now-lastSchedule >= cfg.ScheduleEverySec {
			if err := reschedule(); err != nil {
				return nil, err
			}
			lastSchedule = now
		}

		// Failure process. Traffic already in flight on dead tunnels
		// is lost during this transient second — the accounting below
		// runs with the stale rates (dead-tunnel traffic drops), and
		// react() below installs the post-failure rates for subsequent
		// seconds. BATE's precomputed backups are the exception: §3.4
		// activates them immediately ("so that the surviving tunnels
		// can be used immediately, and packet loss can be mitigated"),
		// so its reaction applies before this second is charged.
		changed := injector.Step(now)
		instant := changed && cfg.TE.Kind == KindBATE && !cfg.DisableRecovery
		if instant {
			react()
			changed = false
		}

		// Account this second.
		in := input()
		detail, offered := deliveredThisSecond(in, rates, injector)
		offeredTotal += offered.sent
		lostTotal += offered.lost
		tol := 1 - cfg.Tolerance
		for _, d := range active {
			out := outcomes[d.ID]
			out.ActiveSec++
			if ok, _ := classifySecond(d, detail[d.ID], tol); ok {
				out.SatisfiedSec++
			}
			if auditor != nil {
				auditor.Observe(d, detail[d.ID])
			}
		}

		// Reaction to state changes applies from the next second.
		if changed {
			react()
		}
	}

	// Final accounting.
	for _, d := range workload[:nextArrival] {
		out := outcomes[d.ID]
		if out == nil {
			continue
		}
		if out.ActiveSec > 0 {
			out.Availability = float64(out.SatisfiedSec) / float64(out.ActiveSec)
		}
		if out.Admitted {
			out.Violated = d.Target > 0 && out.Availability < d.Target
			out.Profit = pricing.Profit(d.Charge, d.RefundFrac, out.Violated)
			res.Profit += out.Profit
			res.FullCharge += d.Charge
		}
		res.Outcomes = append(res.Outcomes, *out)
	}
	if offeredTotal > 0 {
		res.LossRatio = lostTotal / offeredTotal
	}
	res.FailCount = injector.FailCounts
	if auditor != nil {
		res.SLOReports = auditor.Reports()
		res.SLOLog = auditor.Log()
	}
	return res, nil
}

// secondAccounting carries the sent/lost tally of one second.
type secondAccounting struct {
	sent, lost float64
}

// deliveredThisSecond computes per-demand-pair delivery detail for the
// current second: dead-tunnel traffic is lost entirely, surviving
// traffic is throttled by link congestion. The PairSecond breakdown
// (offered / dead / delivered) is what the SLO auditor classifies
// violation causes from.
func deliveredThisSecond(in *alloc.Input, rates sendRates, injector *FailureInjector) (map[int][]PairSecond, secondAccounting) {
	// Split rates into surviving and dead portions.
	surviving := make(sendRates, len(rates))
	detail := make(map[int][]PairSecond, len(rates))
	var acct secondAccounting
	for _, d := range in.Demands {
		rows, ok := rates[d.ID]
		if !ok {
			continue
		}
		nr := make([][]float64, len(rows))
		det := make([]PairSecond, len(d.Pairs))
		for pi := range d.Pairs {
			if pi >= len(rows) {
				nr[pi] = nil
				continue
			}
			tunnels := in.TunnelsFor(d, pi)
			for ti := range tunnels {
				if !injector.TunnelUp(tunnels[ti]) {
					det[pi].PathDown = true
					break
				}
			}
			nr[pi] = make([]float64, len(rows[pi]))
			for ti, r := range rows[pi] {
				if r <= 0 {
					continue
				}
				acct.sent += r
				det[pi].Offered += r
				if injector.TunnelUp(tunnels[ti]) {
					nr[pi][ti] = r
				} else {
					det[pi].Dead += r
					acct.lost += r
				}
			}
		}
		surviving[d.ID] = nr
		detail[d.ID] = det
	}
	delivered, offered := deliveredWithCongestion(in, surviving)
	// Congestion drops count as loss too. Sum in demand order, not map
	// order: the two totals differ by ulps, and a run-to-run iteration
	// order would flip the sign of a near-zero loss.
	deliveredSum := 0.0
	for _, d := range in.Demands {
		det := detail[d.ID]
		for pi, v := range delivered[d.ID] {
			if pi < len(det) {
				det[pi].Delivered = v
			}
			deliveredSum += v
		}
	}
	acct.lost += offered - deliveredSum
	if acct.lost < 0 {
		acct.lost = 0
	}
	return detail, acct
}
