package sim

import (
	"math/rand"
	"sort"

	"bate/internal/alloc"
	"bate/internal/bate"
	"bate/internal/demand"
	"bate/internal/pricing"
	"bate/internal/routing"
	"bate/internal/topo"
)

// EventSimConfig drives the large-scale event-driven simulation used
// by Figs. 12-19 (§5.2): demands arrive and depart, admission control
// decides, the TE scheme reallocates periodically, and satisfaction is
// computed by TEAVAR-style post-processing over failure scenarios
// rather than per-second emulation.
type EventSimConfig struct {
	Net              *topo.Network
	Tunnels          *routing.TunnelSet
	Workload         []*demand.Demand
	HorizonSec       float64
	ScheduleEverySec float64 // paper: TE activated every 10 minutes
	TE               TEConfig
	Admission        AdmissionMode
	MaxFail          int
	// Shadow additionally evaluates the Fixed, BATE and OPT admission
	// deciders on the same state at every arrival (without affecting
	// the run) to measure conjecture errors (Fig. 12(d)).
	Shadow bool
	// ProfitSamples, when positive, samples that many single-link
	// failure scenarios (weighted by link failure probability) at each
	// scheduling epoch and evaluates post-failure profit (Fig. 15).
	ProfitSamples int
	// RecoveryCompare additionally runs the optimal recovery MILP on
	// each sampled failure to measure the greedy's approximation ratio
	// and speedup (Figs. 19, 21).
	RecoveryCompare bool
	Seed            int64
}

func (c EventSimConfig) defaults() EventSimConfig {
	if c.HorizonSec <= 0 {
		c.HorizonSec = 3600
	}
	if c.ScheduleEverySec <= 0 {
		c.ScheduleEverySec = 600
	}
	if c.MaxFail <= 0 {
		c.MaxFail = 2
	}
	c.TE = c.TE.Defaults()
	return c
}

// EventSimResult aggregates an event-driven run.
type EventSimResult struct {
	Arrived, Admitted, Rejected int
	// ExpiredOnArrival counts demands already past their end time at
	// their own arrival event (zero-length lifetimes); they skip
	// admission entirely.
	ExpiredOnArrival int
	ByMethod         map[bate.AdmissionMethod]int
	// AdmissionDelaysSec per decider (primary plus shadows).
	AdmissionDelaysSec map[AdmissionMode][]float64
	// ShadowRejected counts rejections per shadow decider;
	// ShadowFalseReject counts rejections OPT would have admitted.
	ShadowRejected    map[AdmissionMode]int
	ShadowFalseReject map[AdmissionMode]int

	// Satisfaction via post-processing: Checked demand-epochs and how
	// many were satisfied.
	Satisfied, Checked int
	UtilSamples        []float64

	// Profit sampling.
	ProfitRatios  []float64 // post-failure profit / full charge
	ApproxRatios  []float64 // optimal profit / greedy profit (≥ 1)
	SpeedupRatios []float64 // optimal time / greedy time
}

// SatisfactionRatio is the fraction of demand-epochs whose achieved
// availability met the target.
func (r *EventSimResult) SatisfactionRatio() float64 {
	if r.Checked == 0 {
		return 1
	}
	return float64(r.Satisfied) / float64(r.Checked)
}

// RejectionRatio is rejected/arrived.
func (r *EventSimResult) RejectionRatio() float64 {
	if r.Arrived == 0 {
		return 0
	}
	return float64(r.Rejected) / float64(r.Arrived)
}

// MeanUtilization averages the epoch utilization samples.
func (r *EventSimResult) MeanUtilization() float64 {
	if len(r.UtilSamples) == 0 {
		return 0
	}
	sum := 0.0
	for _, u := range r.UtilSamples {
		sum += u
	}
	return sum / float64(len(r.UtilSamples))
}

// RunEventSim executes the event-driven simulation.
func RunEventSim(cfg EventSimConfig) (*EventSimResult, error) {
	cfg = cfg.defaults()
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed))
	workload := append([]*demand.Demand(nil), cfg.Workload...)
	sort.Slice(workload, func(i, j int) bool { return workload[i].Start < workload[j].Start })

	res := &EventSimResult{
		ByMethod:           make(map[bate.AdmissionMethod]int),
		AdmissionDelaysSec: make(map[AdmissionMode][]float64),
		ShadowRejected:     make(map[AdmissionMode]int),
		ShadowFalseReject:  make(map[AdmissionMode]int),
	}

	var active []*demand.Demand
	input := func() *alloc.Input {
		return &alloc.Input{Net: cfg.Net, Tunnels: cfg.Tunnels, Demands: active}
	}
	current := alloc.Allocation{}
	nextArrival := 0

	expire := func(now float64) {
		kept := active[:0]
		for _, d := range active {
			if d.End > now {
				kept = append(kept, d)
			}
		}
		active = kept
	}

	// Cumulative link failure probabilities for weighted sampling.
	linkWeights := make([]float64, cfg.Net.NumLinks())
	totalW := 0.0
	for _, l := range cfg.Net.Links() {
		totalW += l.FailProb
		linkWeights[l.ID] = totalW
	}
	sampleLink := func() topo.LinkID {
		x := rng.Float64() * totalW
		for id, w := range linkWeights {
			if x <= w {
				return topo.LinkID(id)
			}
		}
		return topo.LinkID(len(linkWeights) - 1)
	}

	epoch := func(now float64) error {
		expire(now)
		in := input()
		a, err := cfg.TE.Allocate(in)
		if err != nil {
			return err
		}
		current = a
		res.UtilSamples = append(res.UtilSamples, a.MeanUtilization(in))
		// Post-processing satisfaction (§5.2 methodology).
		for _, d := range active {
			if d.Target <= 0 {
				res.Checked++
				res.Satisfied++
				continue
			}
			ok, err := alloc.Satisfies(in, a, d, cfg.MaxFail)
			if err != nil {
				return err
			}
			res.Checked++
			if ok {
				res.Satisfied++
			}
		}
		// Profit-after-failure sampling.
		for s := 0; s < cfg.ProfitSamples && len(active) > 0; s++ {
			link := sampleLink()
			if err := sampleProfit(cfg, in, current, link, res); err != nil {
				return err
			}
		}
		return nil
	}

	nextEpoch := 0.0
	for now := 0.0; now <= cfg.HorizonSec; {
		// Next event: arrival or epoch.
		nextT := cfg.HorizonSec + 1
		isArrival := false
		if nextArrival < len(workload) && workload[nextArrival].Start <= cfg.HorizonSec {
			nextT = workload[nextArrival].Start
			isArrival = true
		}
		if nextEpoch <= nextT {
			nextT = nextEpoch
			isArrival = false
		}
		if nextT > cfg.HorizonSec {
			break
		}
		now = nextT
		if !isArrival {
			if err := epoch(now); err != nil {
				return nil, err
			}
			nextEpoch += cfg.ScheduleEverySec
			continue
		}
		d := workload[nextArrival]
		nextArrival++
		expire(now)
		res.Arrived++
		if d.End <= now {
			// Expired on arrival (a zero-length lifetime): admitting
			// it would hold capacity until the next expire() for a
			// demand that was never live. Skip admission entirely.
			res.ExpiredOnArrival++
			continue
		}
		in := input()

		if cfg.Shadow {
			// Evaluate every decider on the same state; a rejection
			// that OPT would have admitted is a false (conjecture)
			// rejection (Fig. 12(d)).
			decisions := make(map[AdmissionMode]bool, 3)
			for _, mode := range []AdmissionMode{AdmitFixedOnly, AdmitBATE, AdmitOptimal} {
				r, err := admitWith(mode, in, current, active, d, cfg.MaxFail)
				if err != nil {
					return nil, err
				}
				res.AdmissionDelaysSec[mode] = append(res.AdmissionDelaysSec[mode], r.Elapsed.Seconds())
				decisions[mode] = r.Admitted
				if !r.Admitted {
					res.ShadowRejected[mode]++
				}
			}
			if decisions[AdmitOptimal] {
				for _, mode := range []AdmissionMode{AdmitFixedOnly, AdmitBATE} {
					if !decisions[mode] {
						res.ShadowFalseReject[mode]++
					}
				}
			}
		}

		adRes, err := admitWith(cfg.Admission, in, current, active, d, cfg.MaxFail)
		if err != nil {
			return nil, err
		}
		if !cfg.Shadow {
			res.AdmissionDelaysSec[cfg.Admission] = append(res.AdmissionDelaysSec[cfg.Admission], adRes.Elapsed.Seconds())
		}
		res.ByMethod[adRes.Method]++
		if !adRes.Admitted {
			res.Rejected++
			continue
		}
		res.Admitted++
		active = append(active, d)
		if adRes.NewAlloc != nil {
			current[d.ID] = adRes.NewAlloc
		}
	}
	return res, nil
}

// sampleProfit evaluates post-failure profit for one failed link.
func sampleProfit(cfg EventSimConfig, in *alloc.Input, current alloc.Allocation, link topo.LinkID, res *EventSimResult) error {
	full := 0.0
	for _, d := range in.Demands {
		full += d.Charge
	}
	if full <= 0 {
		return nil
	}
	var profit float64
	if cfg.TE.Kind == KindBATE {
		grd, err := bate.RecoverGreedy(in, []topo.LinkID{link})
		if err != nil {
			return err
		}
		profit = grd.Profit
		if cfg.RecoveryCompare {
			opt, err := bate.RecoverOptimal(in, []topo.LinkID{link})
			if err != nil {
				return err
			}
			if grd.Profit > 0 {
				res.ApproxRatios = append(res.ApproxRatios, opt.Profit/grd.Profit)
			}
			if grd.Elapsed > 0 {
				res.SpeedupRatios = append(res.SpeedupRatios, float64(opt.Elapsed)/float64(grd.Elapsed))
			}
		}
	} else {
		// Baselines rescale proportionally and take congestion losses.
		up := func(t routing.Tunnel) bool { return !t.Uses(link) }
		var rates sendRates
		if cfg.TE.Kind == KindFFC {
			rates = ratesFromAlloc(in, current, up)
		} else {
			rates = rescaleProportional(in, current, up)
		}
		delivered, _ := deliveredWithCongestion(in, rates)
		for _, d := range in.Demands {
			violated := false
			for pi, pr := range d.Pairs {
				if pr.Bandwidth <= 0 {
					continue
				}
				got := 0.0
				if per := delivered[d.ID]; per != nil && pi < len(per) {
					got = per[pi]
				}
				if got < pr.Bandwidth*0.99 {
					violated = true
					break
				}
			}
			profit += pricing.Profit(d.Charge, d.RefundFrac, violated)
		}
	}
	res.ProfitRatios = append(res.ProfitRatios, profit/full)
	return nil
}
