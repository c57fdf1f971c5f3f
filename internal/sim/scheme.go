// Package sim provides the evaluation machinery of §5: a per-second
// time-stepped simulator reproducing the testbed's failure emulation
// (§5.1), an event-driven workload simulator for the large-scale
// experiments (§5.2), the proportional-rescaling/congestion model used
// to measure data loss (Fig. 11), and the TE-scheme dispatcher that
// lets every experiment run BATE and the five baselines side by side.
package sim

import (
	"fmt"

	"bate/internal/alloc"
	"bate/internal/bate"
	"bate/internal/lp"
	"bate/internal/partition"
	"bate/internal/scenario"
	"bate/internal/te"
)

// TEKind identifies a traffic-engineering scheme.
type TEKind int8

// The schemes compared in §5.
const (
	KindBATE TEKind = iota
	KindFFC
	KindTEAVAR
	KindSWAN
	KindSMORE
	KindB4
)

func (k TEKind) String() string {
	switch k {
	case KindBATE:
		return "BATE"
	case KindFFC:
		return te.NameFFC
	case KindTEAVAR:
		return te.NameTEAVAR
	case KindSWAN:
		return te.NameSWAN
	case KindSMORE:
		return te.NameSMORE
	case KindB4:
		return te.NameB4
	}
	return "unknown"
}

// AllKinds lists every scheme in display order.
func AllKinds() []TEKind {
	return []TEKind{KindBATE, KindTEAVAR, KindSWAN, KindSMORE, KindB4, KindFFC}
}

// TEConfig configures the scheme dispatcher.
type TEConfig struct {
	Kind TEKind
	// MaxFail is the scenario pruning depth for BATE and TEAVAR.
	MaxFail int
	// FFCK is FFC's protection level (paper: 1).
	FFCK int
	// TEAVARBeta is TEAVAR's single availability level (paper: 99.9%,
	// the maximum target in the workload).
	TEAVARBeta float64
	// Scheduler, when set, warm-starts each epoch's scheduling solve
	// from the previous epoch's optimal basis (the admitted set
	// usually changes by a few demands per round). Share one Scheduler
	// across the rounds of a single simulation; it is not safe for
	// concurrent use.
	Scheduler *bate.Scheduler
	// Partition, when non-nil, enables BATE's hierarchical
	// (partitioned) scheduling; see bate.ScheduleOptions.Partition.
	Partition *partition.Options
}

// Defaults fills unset fields with the paper's defaults.
func (c TEConfig) Defaults() TEConfig {
	if c.MaxFail <= 0 {
		c.MaxFail = 2
	}
	if c.FFCK <= 0 {
		c.FFCK = 1
	}
	if c.TEAVARBeta <= 0 {
		c.TEAVARBeta = 0.999
	}
	return c
}

// Allocate runs the configured scheme on the input. For BATE, if the
// exact scheduling LP is infeasible (possible when admission control
// is disabled and the workload overloads the network), it degrades to
// the best-effort variant that maximizes granted bandwidth under the
// same per-demand availability machinery.
func (c TEConfig) Allocate(in *alloc.Input) (alloc.Allocation, error) {
	c = c.Defaults()
	if len(in.Demands) == 0 {
		return alloc.New(in), nil
	}
	switch c.Kind {
	case KindBATE:
		opts := bate.ScheduleOptions{MaxFail: c.MaxFail, Partition: c.Partition}
		var a alloc.Allocation
		var err error
		if c.Scheduler != nil {
			a, _, err = c.Scheduler.Schedule(in, opts)
		} else {
			a, _, err = bate.Schedule(in, opts)
		}
		if err == nil {
			// Upgrade the relaxation to the hard guarantee where
			// possible; keep the relaxed allocation if hardening has
			// no feasible solution.
			if hardened, herr := bate.Harden(in, opts, a); herr == nil {
				return hardened, nil
			}
			return a, nil
		}
		return bestEffortBATE(in, c.MaxFail)
	case KindFFC:
		return te.FFC(in, c.FFCK)
	case KindTEAVAR:
		return te.TEAVAR(in, c.TEAVARBeta, c.MaxFail)
	case KindSWAN:
		return te.SWAN(in)
	case KindSMORE:
		return te.SMORE(in)
	case KindB4:
		return te.B4(in)
	}
	return nil, fmt.Errorf("sim: unknown TE kind %d", c.Kind)
}

// bestEffortBATE is BATE's overload fallback: like the scheduling LP
// but with Eq. 1 and Eq. 4 softened — maximize total granted bandwidth
// plus the availability the grants achieve, weighted per demand by
// target stringency. Demands keep their heterogeneous β treatment
// (unlike TEAVAR's single level).
func bestEffortBATE(in *alloc.Input, maxFail int) (alloc.Allocation, error) {
	p := lp.NewProblem()
	p.SetMaximize()
	fv := alloc.AddFlowVars(p, in, alloc.FullCapacities(in), nil)
	for _, d := range in.Demands {
		var classes []scenario.Class
		var bvars []lp.VarID
		if d.Target > 0 {
			var err error
			classes, _, err = in.Classes(d, maxFail)
			if err != nil {
				return nil, fmt.Errorf("sim: best-effort classes: %w", err)
			}
			// Availability bonus: same tie-break weighting as the exact
			// scheduler, kept strictly below 1 objective unit per Mbps.
			w := 900.0
			if s := 1 / (1 - d.Target); s < w {
				w = s
			}
			bonus := 1e-3 * d.TotalBandwidth() * w
			bvars = make([]lp.VarID, len(classes))
			for ci, cls := range classes {
				bvars[ci] = p.AddVariable(fmt.Sprintf("B[d%d,c%d]", d.ID, ci), 0, 1, bonus*cls.Prob)
			}
		}
		for pi, pr := range d.Pairs {
			if pr.Bandwidth <= 0 {
				continue
			}
			// Granted bandwidth, capped by the demand.
			g := p.AddVariable(fmt.Sprintf("g[d%d,p%d]", d.ID, pi), 0, pr.Bandwidth, 1)
			terms := make([]lp.Term, 0, len(fv[d.ID][pi])+1)
			for _, v := range fv[d.ID][pi] {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
			}
			terms = append(terms, lp.Term{Var: g, Coef: -1})
			p.AddConstraint(lp.Constraint{Terms: terms, Op: lp.GE, RHS: 0})
			// Discourage allocating more than granted (waste).
			for _, v := range fv[d.ID][pi] {
				p.SetCost(v, -1e-6)
			}
			// Class availability anchored to the grant:
			// delivered_cls ≥ b·B - (b - g).
			for ci, cls := range classes {
				cterms := append(fv.ClassTerms(nil, in, d, pi, cls),
					lp.Term{Var: bvars[ci], Coef: -pr.Bandwidth},
					lp.Term{Var: g, Coef: -1})
				p.AddConstraint(lp.Constraint{Terms: cterms, Op: lp.GE, RHS: -pr.Bandwidth})
			}
		}
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("sim: best-effort fallback: %w", err)
	}
	return fv.Extract(sol), nil
}
