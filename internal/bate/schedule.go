// Package bate implements the paper's primary contribution: the BATE
// traffic-engineering framework for hard bandwidth-availability
// guarantees over inter-DC WANs. It provides the three core
// components of §3 — admission control (§3.2), traffic scheduling
// (§3.3) and failure recovery (§3.4) — on top of the lp, scenario,
// routing and alloc substrates.
package bate

import (
	"context"
	"errors"
	"fmt"
	"time"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/metrics"
	"bate/internal/parallel"
	"bate/internal/partition"
	"bate/internal/scenario"
	"bate/internal/topo"
)

// schedules counts scheduling-LP solves process-wide; paired with the
// scenario cache counters it shows how much class work each round
// amortized.
var schedules = metrics.NewCounter("bate.schedules")

// ScheduleMode selects how the scheduling LP represents failure
// scenarios.
type ScheduleMode int8

const (
	// Aggregated groups scenarios into per-demand tunnel-state classes
	// (exact, and exponentially smaller; the production mode).
	Aggregated ScheduleMode = iota
	// Enumerated instantiates one B variable per demand per explicit
	// pruned scenario, exactly as written in Eq. 3-4. Used by the
	// Fig. 16/17 benchmarks, whose cost grows with the scenario count.
	Enumerated
)

// ScheduleOptions tunes the traffic-scheduling LP (Eq. 7).
type ScheduleOptions struct {
	// MaxFail is the pruning depth y: at most this many concurrent
	// link failures are modeled; everything beyond is the aggregated
	// unqualified residual (Fig. 3). The paper sweeps 1..4.
	MaxFail int
	Mode    ScheduleMode
	// Groups are shared-risk link groups (correlated failures), an
	// extension beyond the paper's independence assumption (§3.1
	// footnote 3). Only the Aggregated mode supports them.
	Groups []scenario.RiskGroup
	// Engine selects the LP engine. The zero value (lp.EngineAuto)
	// keeps the dense reference tableau in the one-shot Schedule and
	// means lp.EngineRevised in Scheduler and Harden; lp.EngineRevised
	// opts into the sparse revised simplex (required for warm starts).
	Engine lp.Engine
	// Cancel, when non-nil, is polled inside the LP iteration loops;
	// a non-nil return aborts the round with lp.ErrAborted (the caller
	// keeps its current allocation). Deadline contexts and the chaos
	// mid-solve watcher hook in here.
	Cancel func() error
	// Gate, when non-nil, is consulted ("schedule") before the solve;
	// an error aborts it. The chaos solver-budget front hooks in here,
	// and callers must treat the error as "keep the current
	// allocation", not as fatal. A partitioned round consults it once,
	// not per subproblem.
	Gate func(op string) error
	// Partition, when non-nil with Regions > 1, enables hierarchical
	// scheduling: the topology splits into regions whose availability
	// LPs solve concurrently, stitched by a coordination solve for the
	// cross-region demands. Rounds the decomposition declines (span or
	// gap-bound violations, infeasible subproblems) fall back to the
	// global LP transparently. Aggregated mode only.
	Partition *partition.Options
}

// ScheduleStats reports the size and cost of a scheduling solve.
type ScheduleStats struct {
	Variables   int
	Constraints int
	Iterations  int
	Elapsed     time.Duration
	// ClassCacheHits/Misses count the scenario-class lookups this
	// solve served from the memoizing cache vs computed fresh.
	ClassCacheHits   int
	ClassCacheMisses int
	// PoolWorkers is the parallel worker bound constraint assembly ran
	// under (1 = serial).
	PoolWorkers int
	// WarmStarted reports whether the solve reused a cached basis from
	// a previous round (revised engine only) instead of a cold two-phase
	// start. For a partitioned round it means every subproblem did.
	WarmStarted bool
	// WarmFallback is lp.Solution.WarmFallback: why a cached basis was
	// abandoned for a cold solve ("" when it held or there was none).
	// A partitioned round reports its first subproblem that fell back.
	WarmFallback string
	// Partitioned reports whether this round was served by the
	// hierarchical decomposition; the fields below describe it.
	Partitioned bool
	// Regions is the region count of the partition used.
	Regions int
	// CutDemands counts demands handled by the coordination solve.
	CutDemands int
	// GapBound is the proved relative bound on the stitched solution's
	// distance from the global optimum.
	GapBound float64
	// PartitionFallback is why a round that asked for partitioning went
	// to the global solve (partition.FallbackError.Reason), "" otherwise.
	PartitionFallback string
}

// Schedule solves the traffic-scheduling LP of Eq. 7: it finds the
// cheapest bandwidth allocation (minimum Σ f^t_d) that gives every
// admitted demand its full bandwidth (Eq. 1) and meets every
// availability target in the B-relaxed sense of Eq. 3-4, subject to
// link capacities (Eq. 6). It returns lp.ErrInfeasible when the
// admitted set cannot be satisfied.
func Schedule(in *alloc.Input, opts ScheduleOptions) (alloc.Allocation, *ScheduleStats, error) {
	return scheduleWarm(in, opts, nil, nil, nil)
}

// Scheduler runs successive scheduling solves with the revised LP
// engine, warm-starting each round from the previous round's optimal
// basis. The controller and the time simulator re-solve a near-
// identical LP every round — the admitted set changes incrementally —
// and the basis is keyed by the LP's column and row names
// (f[d,p,t], B[d,c], demand[d,p], deliv[d,c,p], avail[d], cap[e]), so
// admissions, withdrawals, drains and capacity changes all keep it:
// surviving demands keep their statuses, new ones enter at a bound with
// their rows' slacks basic, and a short dual-simplex repair replaces the
// cold two-phase solve. ScheduleStats.WarmFallback names the rare
// round that went cold anyway. A Scheduler is not safe for concurrent
// use.
type Scheduler struct {
	basis  *lp.Basis
	pstate *partition.State
}

// NewScheduler returns a Scheduler with no cached basis.
func NewScheduler() *Scheduler { return &Scheduler{pstate: &partition.State{}} }

// Schedule is Schedule with cross-call basis reuse.
func (s *Scheduler) Schedule(in *alloc.Input, opts ScheduleOptions) (alloc.Allocation, *ScheduleStats, error) {
	if opts.Engine == lp.EngineAuto {
		opts.Engine = lp.EngineRevised
	}
	if s.pstate == nil {
		s.pstate = &partition.State{}
	}
	return scheduleWarm(in, opts, s.basis, &s.basis, s.pstate)
}

// scheduleWarm builds and solves the scheduling LP, optionally seeding
// the revised engine with a warm basis; basisOut, when non-nil,
// receives the new optimal basis for the caller to cache. pst carries
// the partitioned path's warm-start state (nil for one-shot solves).
func scheduleWarm(in *alloc.Input, opts ScheduleOptions, warm *lp.Basis, basisOut **lp.Basis, pst *partition.State) (alloc.Allocation, *ScheduleStats, error) {
	if opts.MaxFail <= 0 {
		opts.MaxFail = 2
	}
	if opts.Gate != nil {
		if err := opts.Gate("schedule"); err != nil {
			return nil, nil, fmt.Errorf("bate: schedule gated: %w", err)
		}
	}
	start := time.Now()
	var declined string // why partitioning handed the round to the global solve
	if opts.Partition != nil && opts.Partition.Regions > 1 && opts.Mode == Aggregated {
		res, err := partition.Schedule(in, *opts.Partition, subSolver(opts), pst)
		var fb *partition.FallbackError
		switch {
		case err == nil:
			schedules.Inc()
			stats := &ScheduleStats{
				Variables:        res.Stats.Variables,
				Constraints:      res.Stats.Constraints,
				Iterations:       res.Stats.Iterations,
				Elapsed:          time.Since(start),
				ClassCacheHits:   res.Stats.ClassCacheHits,
				ClassCacheMisses: res.Stats.ClassCacheMisses,
				PoolWorkers:      parallel.Default().Size(),
				WarmStarted:      res.Stats.WarmStarted,
				WarmFallback:     res.Stats.WarmFallback,
				Partitioned:      true,
				Regions:          res.Stats.Regions,
				CutDemands:       res.Stats.CutDemands,
				GapBound:         res.Stats.GapBound,
			}
			return res.Alloc, stats, nil
		case errors.As(err, &fb):
			declined = fb.Reason // global solve below decides the round
		default:
			return nil, nil, fmt.Errorf("bate: partitioned schedule: %w", err)
		}
	}
	p := lp.NewProblem()
	stats := &ScheduleStats{PoolWorkers: parallel.Default().Size(), PartitionFallback: declined}
	fv, _, err := buildScheduleLP(p, in, opts, alloc.FullCapacities(in), stats)
	if err != nil {
		return nil, nil, err
	}
	schedules.Inc()
	stats.Variables, stats.Constraints = p.NumVariables(), p.NumConstraints()
	sol, err := p.SolveOpts(lp.Options{Engine: opts.Engine, Warm: warm, Cancel: opts.Cancel})
	stats.Elapsed = time.Since(start)
	if sol != nil {
		stats.Iterations = sol.Iterations
		stats.WarmStarted = sol.WarmStarted
		stats.WarmFallback = sol.WarmFallback
	}
	if err != nil {
		return nil, stats, fmt.Errorf("bate: schedule: %w", err)
	}
	if basisOut != nil {
		*basisOut = sol.Basis()
	}
	return fv.Extract(sol), stats, nil
}

// buildScheduleLP assembles the Eq. 7 scheduling LP — flow variables
// with capacity rows for the given per-link capacities, the Eq. 1
// demand rows, and the Eq. 3-4 availability rows — into p. It is
// shared by the global solve (full capacities), the partitioned
// subproblem solver (residual capacities over a demand subset) and
// LinkPrices. The returned map gives each link's capacity-row index
// for dual lookups. stats may be nil.
func buildScheduleLP(p *lp.Problem, in *alloc.Input, opts ScheduleOptions, caps []float64, stats *ScheduleStats) (alloc.FlowVars, map[topo.LinkID]int, error) {
	fv, capIdx := alloc.AddFlowVarsIndexed(p, in, caps, nil)
	// Objective: minimize total allocated bandwidth.
	for _, rows := range fv {
		for _, r := range rows {
			for _, v := range r {
				p.SetCost(v, 1)
			}
		}
	}
	// Eq. 1: full bandwidth for every pair of every admitted demand.
	var name [32]byte
	for _, d := range in.Demands {
		for pi, pr := range d.Pairs {
			if pr.Bandwidth <= 0 {
				continue
			}
			terms := make([]lp.Term, 0, len(fv[d.ID][pi]))
			for _, v := range fv[d.ID][pi] {
				terms = append(terms, lp.Term{Var: v, Coef: 1})
			}
			p.AddConstraint(lp.Constraint{
				Name:  string(alloc.AppendName(name[:0], "demand", "dp", d.ID, pi)),
				Terms: terms, Op: lp.GE, RHS: pr.Bandwidth,
			})
		}
	}
	var err error
	switch {
	case opts.Mode == Aggregated:
		err = addAvailabilityGroupedStats(p, in, fv, opts.MaxFail, opts.Groups, stats)
	case opts.Mode == Enumerated && len(opts.Groups) > 0:
		err = fmt.Errorf("bate: risk groups require the Aggregated mode")
	case opts.Mode == Enumerated:
		err = addAvailabilityEnumerated(p, in, fv, opts.MaxFail)
	default:
		err = fmt.Errorf("bate: unknown schedule mode %d", opts.Mode)
	}
	if err != nil {
		return nil, nil, err
	}
	return fv, capIdx, nil
}

// subSolver adapts the scheduling-LP formulation to the partition
// package's SubSolver callback: one subproblem is the same LP over a
// demand subset with caller-chosen capacities, solved on the revised
// engine so region bases warm-start across rounds.
func subSolver(opts ScheduleOptions) partition.SubSolver {
	return func(sub *alloc.Input, caps []float64, warm *lp.Basis) (*partition.SubResult, error) {
		p := lp.NewProblem()
		stats := &ScheduleStats{}
		fv, capIdx, err := buildScheduleLP(p, sub, opts, caps, stats)
		if err != nil {
			return nil, err
		}
		sol, err := p.SolveOpts(lp.Options{Engine: lp.EngineRevised, Warm: warm, Cancel: opts.Cancel})
		if err != nil {
			return nil, err
		}
		duals := make(map[topo.LinkID]float64, len(capIdx))
		for e, idx := range capIdx {
			duals[e] = sol.Dual(idx)
		}
		return &partition.SubResult{
			Alloc:            fv.Extract(sol),
			Objective:        sol.Objective,
			CapDuals:         duals,
			Basis:            sol.Basis(),
			Variables:        p.NumVariables(),
			Constraints:      p.NumConstraints(),
			Iterations:       sol.Iterations,
			WarmStarted:      sol.WarmStarted,
			ClassCacheHits:   stats.ClassCacheHits,
			ClassCacheMisses: stats.ClassCacheMisses,
		}, nil
	}
}

// availabilityBonus returns the small negative cost placed on each B
// variable. The Eq. 3-4 relaxation leaves the minimum-bandwidth
// objective indifferent between traffic splits of equal size; the
// bonus breaks those ties toward placements that maximize true
// availability, weighted by how stringent the demand's target is
// (1/(1-β)), so that high-β demands win the reliable tunnels when
// demands compete — the Table 3 matching. The 1e-3 scale and the
// weight cap keep the bonus rate strictly below 1 objective unit per
// Mbps, so the LP can never profitably allocate extra bandwidth just
// to farm the bonus.
func availabilityBonus(d *demand.Demand) float64 {
	w := 900.0
	if d.Target < 1 {
		if s := 1 / (1 - d.Target); s < w {
			w = s
		}
	}
	return 1e-3 * d.TotalBandwidth() * w
}

// addAvailabilityAggregated adds Eq. 3-4 using per-demand tunnel-state
// classes: one B variable per (demand, class), B ∈ [0,1],
// delivered_{k,class} ≥ b_k·B, and Σ p_class·B ≥ β_d.
func addAvailabilityAggregated(p *lp.Problem, in *alloc.Input, fv alloc.FlowVars, maxFail int) error {
	return addAvailabilityGroupedStats(p, in, fv, maxFail, nil, nil)
}

// addAvailabilityGroupedStats is the aggregated formulation under the
// correlated (SRLG) failure model; nil groups are the independent
// case. The expensive pieces — scenario-class computation (memoized)
// and constraint-row construction — fan out over demands on the
// parallel pool; variables and constraints are then installed
// serially in the exact order the serial assembly used, so the LP
// (and therefore the simplex pivot sequence and the solution bytes)
// is identical at any worker count. stats may be nil.
func addAvailabilityGroupedStats(p *lp.Problem, in *alloc.Input, fv alloc.FlowVars, maxFail int, groups []scenario.RiskGroup, stats *ScheduleStats) error {
	targeted := make([]*demand.Demand, 0, len(in.Demands))
	for _, d := range in.Demands {
		if d.Target > 0 {
			targeted = append(targeted, d)
		}
	}
	if len(targeted) == 0 {
		return nil
	}
	type assembly struct {
		classes []scenario.Class
		hit     bool
		bv      []lp.VarID
		rows    []lp.Constraint
	}
	jobs := make([]assembly, len(targeted))
	pool := parallel.Default()
	ctx := context.Background()

	// Phase 1: scenario classes per demand, concurrent and memoized.
	err := pool.ForEach(ctx, len(targeted), func(i int) error {
		classes, hit, err := scenario.CachedClassesFor(in.Net, groups, in.AllTunnelsFor(targeted[i]), maxFail)
		if err != nil {
			return fmt.Errorf("bate: classes for demand %d: %w", targeted[i].ID, err)
		}
		jobs[i].classes, jobs[i].hit = classes, hit
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 2 (serial): allocate the B variables in (demand, class)
	// order — the same VarID sequence the serial assembly produces.
	var name [32]byte
	for i, d := range targeted {
		bonus := availabilityBonus(d)
		jobs[i].bv = make([]lp.VarID, len(jobs[i].classes))
		for ci, cls := range jobs[i].classes {
			jobs[i].bv[ci] = p.AddVariable(string(alloc.AppendName(name[:0], "B", "dc", d.ID, ci)), 0, 1, -bonus*cls.Prob)
		}
		if stats != nil {
			if jobs[i].hit {
				stats.ClassCacheHits++
			} else {
				stats.ClassCacheMisses++
			}
		}
	}

	// Phase 3: build the constraint rows concurrently; rows are pure
	// data referencing the pre-allocated variable ids.
	err = pool.ForEach(ctx, len(targeted), func(i int) error {
		jobs[i].rows = availabilityRows(in, targeted[i], jobs[i].classes, jobs[i].bv, fv)
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 4 (serial): install the rows in demand order.
	for i := range jobs {
		for _, c := range jobs[i].rows {
			p.AddConstraint(c)
		}
	}
	return nil
}

// availabilityRows builds demand d's Eq. 3-4 constraint rows: per
// class, one delivered ≥ b·B row per pair; then the Σ p·B ≥ β row.
// The returned rows are pure data, safe to build concurrently.
func availabilityRows(in *alloc.Input, d *demand.Demand, classes []scenario.Class, bv []lp.VarID, fv alloc.FlowVars) []lp.Constraint {
	rows := make([]lp.Constraint, 0, len(classes)*len(d.Pairs)+1)
	availTerms := make([]lp.Term, 0, len(classes))
	var name [32]byte
	for ci, cls := range classes {
		availTerms = append(availTerms, lp.Term{Var: bv[ci], Coef: cls.Prob})
		bit := 0
		for pi, pr := range d.Pairs {
			tunnels := in.TunnelsFor(d, pi)
			if pr.Bandwidth <= 0 {
				bit += len(tunnels)
				continue
			}
			terms := make([]lp.Term, 0, len(tunnels)+1)
			for ti := range tunnels {
				if cls.TunnelUp(bit) {
					terms = append(terms, lp.Term{Var: fv[d.ID][pi][ti], Coef: 1})
				}
				bit++
			}
			terms = append(terms, lp.Term{Var: bv[ci], Coef: -pr.Bandwidth})
			rows = append(rows, lp.Constraint{
				Name:  string(alloc.AppendName(name[:0], "deliv", "dcp", d.ID, ci, pi)),
				Terms: terms, Op: lp.GE, RHS: 0,
			})
		}
	}
	rows = append(rows, lp.Constraint{
		Name:  string(alloc.AppendName(name[:0], "avail", "d", d.ID)),
		Terms: availTerms, Op: lp.GE, RHS: d.Target,
	})
	return rows
}

// addAvailabilityEnumerated adds Eq. 3-4 with one B variable per
// explicit pruned scenario, following the paper's formulation
// verbatim. Exponentially larger but numerically identical to the
// aggregated form. Like the aggregated path, row construction fans
// out over demands while variables and rows are installed serially in
// the original order.
func addAvailabilityEnumerated(p *lp.Problem, in *alloc.Input, fv alloc.FlowVars, maxFail int) error {
	set, err := scenario.Enumerate(in.Net, maxFail)
	if err != nil {
		return err
	}
	targeted := make([]*demand.Demand, 0, len(in.Demands))
	for _, d := range in.Demands {
		if d.Target > 0 {
			targeted = append(targeted, d)
		}
	}
	if len(targeted) == 0 {
		return nil
	}
	bvs := make([][]lp.VarID, len(targeted))
	var name [32]byte
	for i, d := range targeted {
		bonus := availabilityBonus(d)
		bvs[i] = make([]lp.VarID, len(set.Scenarios))
		for zi, z := range set.Scenarios {
			bvs[i][zi] = p.AddVariable(string(alloc.AppendName(name[:0], "B", "dz", d.ID, zi)), 0, 1, -bonus*z.Prob)
		}
	}
	rowsPer := make([][]lp.Constraint, len(targeted))
	err = parallel.Default().ForEach(context.Background(), len(targeted), func(i int) error {
		rowsPer[i] = enumeratedRows(in, targeted[i], set, bvs[i], fv)
		return nil
	})
	if err != nil {
		return err
	}
	for i := range rowsPer {
		for _, c := range rowsPer[i] {
			p.AddConstraint(c)
		}
	}
	return nil
}

// enumeratedRows builds demand d's per-scenario Eq. 3-4 rows plus the
// availability row, as pure data.
func enumeratedRows(in *alloc.Input, d *demand.Demand, set *scenario.Set, bv []lp.VarID, fv alloc.FlowVars) []lp.Constraint {
	rows := make([]lp.Constraint, 0, len(set.Scenarios)*len(d.Pairs)+1)
	availTerms := make([]lp.Term, 0, len(set.Scenarios))
	for zi, z := range set.Scenarios {
		availTerms = append(availTerms, lp.Term{Var: bv[zi], Coef: z.Prob})
		for pi, pr := range d.Pairs {
			if pr.Bandwidth <= 0 {
				continue
			}
			tunnels := in.TunnelsFor(d, pi)
			terms := make([]lp.Term, 0, len(tunnels)+1)
			for ti, t := range tunnels {
				if z.TunnelUp(t) {
					terms = append(terms, lp.Term{Var: fv[d.ID][pi][ti], Coef: 1})
				}
			}
			terms = append(terms, lp.Term{Var: bv[zi], Coef: -pr.Bandwidth})
			rows = append(rows, lp.Constraint{Terms: terms, Op: lp.GE, RHS: 0})
		}
	}
	rows = append(rows, lp.Constraint{Terms: availTerms, Op: lp.GE, RHS: d.Target})
	return rows
}

// LinkPrices solves the scheduling LP and returns each link's shadow
// price: the marginal reduction in total allocated bandwidth per extra
// Mbps of capacity on that link (≤ 0 for the minimization; reported
// negated so a larger number means a more valuable upgrade). Links the
// optimum does not saturate price at zero. Operators use this to rank
// WAN capacity upgrades.
func LinkPrices(in *alloc.Input, opts ScheduleOptions) (map[topo.LinkID]float64, error) {
	if opts.MaxFail <= 0 {
		opts.MaxFail = 2
	}
	p := lp.NewProblem()
	opts.Mode = Aggregated
	_, capIdx, err := buildScheduleLP(p, in, opts, alloc.FullCapacities(in), nil)
	if err != nil {
		return nil, err
	}
	sol, err := p.SolveOpts(lp.Options{Engine: opts.Engine})
	if err != nil {
		return nil, fmt.Errorf("bate: link prices: %w", err)
	}
	prices := make(map[topo.LinkID]float64, len(capIdx))
	for link, idx := range capIdx {
		prices[link] = -sol.Dual(idx)
	}
	return prices, nil
}
