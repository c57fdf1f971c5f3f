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
	"math"
	"slices"
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

// ScheduleOptions tunes the traffic-scheduling LP (Eq. 7).
type ScheduleOptions struct {
	// MaxFail is the pruning depth y: at most this many concurrent
	// failure units (links, and the Input's risk groups) are modeled;
	// everything beyond is the aggregated unqualified residual
	// (Fig. 3). The paper sweeps 1..4.
	MaxFail int
	// Engine is ignored: every solve runs on the revised simplex, the
	// zero lp.Engine. The field stays only because the bench/ ledger
	// sets it (to that engine).
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
	// global LP transparently.
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
	// a previous round instead of a cold two-phase
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
	return scheduleWarm(in, opts, nil, nil, nil, lp.NewProblem(), new(assembler))
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
	// The global round's LP, Reset and reassembled every round on the
	// same buffers, so a round solves in the memory of the round before
	// (from keepRows rows on).
	p   *lp.Problem
	asm assembler
}

// NewScheduler returns a Scheduler with no cached basis.
func NewScheduler() *Scheduler { return &Scheduler{pstate: &partition.State{}} }

// Schedule is Schedule with cross-call basis reuse.
func (s *Scheduler) Schedule(in *alloc.Input, opts ScheduleOptions) (alloc.Allocation, *ScheduleStats, error) {
	if s.pstate == nil {
		s.pstate = &partition.State{}
	}
	if s.p == nil {
		s.p = lp.NewProblem()
	}
	a, stats, err := scheduleWarm(in, opts, s.basis, &s.basis, s.pstate, s.p, &s.asm)
	if s.p.NumConstraints() < keepRows {
		s.p, s.asm = nil, assembler{}
	}
	return a, stats, err
}

// keepRows is the smallest global LP, in rows, whose problem and
// assembler a Scheduler keeps from one round to the next. What it keeps
// is live heap, ~1 KB a row, for as long as the Scheduler lives. A
// process whose heap sits under the collector's 4 MB floor pays for
// each kept byte with less allocation between collections on every
// request it serves, and a small LP's round has little garbage to save:
// on testbed_small (682 rows, ~0.8 MB kept) keeping them took 1.4x the
// collections and ~20 % on the ack p95s, while on b4_deep (3 218 rows)
// it nearly halves the round.
const keepRows = 2048

// scheduleWarm builds and solves the scheduling LP, optionally seeding
// it with a warm basis; basisOut, when non-nil,
// receives the new optimal basis for the caller to cache. pst carries
// the partitioned path's warm-start state (nil for one-shot solves).
// The global LP is reassembled into p by asm.
func scheduleWarm(in *alloc.Input, opts ScheduleOptions, warm *lp.Basis, basisOut **lp.Basis, pst *partition.State, p *lp.Problem, asm *assembler) (alloc.Allocation, *ScheduleStats, error) {
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
	if opts.Partition != nil && opts.Partition.Regions > 1 {
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
	p.Reset()
	stats := &ScheduleStats{PoolWorkers: parallel.Default().Size(), PartitionFallback: declined}
	fv, _, err := asm.build(p, in, opts.MaxFail, alloc.FullCapacities(in), nil, stats)
	if err != nil {
		return nil, nil, err
	}
	return solveSchedule(p, fv, lp.Options{Warm: warm, Cancel: opts.Cancel}, start, stats, basisOut)
}

// ScheduleEnumerated solves the scheduling LP with Eq. 3-4 written as
// the paper writes them: one B variable per demand per explicit pruned
// scenario of the input's failure model, instead of one per
// tunnel-state class. The optimum is the same as Schedule's, at a cost
// that grows with the scenario count; it is the reference the
// aggregated formulation is tested against and the enumerated series
// of Fig. 17. maxFail ≤ 0 means 2.
func ScheduleEnumerated(in *alloc.Input, maxFail int) (alloc.Allocation, *ScheduleStats, error) {
	if maxFail <= 0 {
		maxFail = 2
	}
	start := time.Now()
	p := lp.NewProblem()
	fv, _ := new(assembler).addDemandLP(p, in, alloc.FullCapacities(in))
	if err := addAvailabilityEnumerated(p, in, fv, maxFail); err != nil {
		return nil, nil, err
	}
	return solveSchedule(p, fv, lp.Options{}, start, &ScheduleStats{PoolWorkers: parallel.Default().Size()}, nil)
}

// solveSchedule solves an assembled scheduling LP and fills stats;
// basisOut, when non-nil, receives the optimal basis.
func solveSchedule(p *lp.Problem, fv alloc.FlowVars, o lp.Options, start time.Time, stats *ScheduleStats, basisOut **lp.Basis) (alloc.Allocation, *ScheduleStats, error) {
	schedules.Inc()
	stats.Variables, stats.Constraints = p.NumVariables(), p.NumConstraints()
	sol, err := p.SolveOpts(o)
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

// buildScheduleLP assembles the Eq. 7 scheduling LP into p, the one
// assembly every BATE solve over a book uses: addDemandLP, then the
// relaxed Eq. 3-4 rows for every targeted demand not in hard, then
// addHardGuarantee's full-delivery rows for every targeted demand in
// hard, in book order. The global solve, the partitioned subproblems
// and LinkPrices pass hard == nil; Harden's re-solve and AdmitFixed's
// fallback trial name the demands the relaxation over-promised. The
// returned map gives each link's capacity-row index for dual lookups.
// stats may be nil. It assembles on a fresh assembler; a Scheduler's
// rounds call build on the one it keeps.
func buildScheduleLP(p *lp.Problem, in *alloc.Input, maxFail int, caps []float64, hard map[int]bool, stats *ScheduleStats) (alloc.FlowVars, map[topo.LinkID]int, error) {
	return new(assembler).build(p, in, maxFail, caps, hard, stats)
}

// assembler assembles the Eq. 7 LP into buffers it keeps for its next
// build: the rows' terms, the flow variables, the capacity rows and
// the names of every column and row, interned by demand so that only
// a demand the last build did not meet allocates names. A Scheduler
// keeps one for its whole life; every other build uses a fresh one.
// The terms of the rows it adds and the FlowVars it returns are its
// own until its next build. The zero value is ready to use.
type assembler struct {
	builds    int
	demands   map[int]*demandLP // the demands of the last build, by ID
	capNames  []string          // cap[e] per link, built on first use
	fv        alloc.FlowVars
	capIdx    map[topo.LinkID]int
	linkTerms [][]lp.Term // each capacity row's terms
	terms     []lp.Term   // the Eq. 1 rows' terms
	targeted  []*demand.Demand
	jobs      []availability
}

// demandLP is what an assembler keeps of one demand: its flow
// variables and the names of its columns and rows, each built on first
// use. A name is a function of the demand ID and the indices only.
type demandLP struct {
	build   int          // the last build that met the demand
	claimed int          // the last build whose Eq. 3-4 rows it names
	flows   [][]lp.VarID // f^t_d's column per pair and tunnel
	f       [][]string   // f[d,p,t]
	demand  []string     // demand[d,p], the pair's Eq. 1 row
	b       []string     // B[d,c]
	deliv   []string     // deliv[d,c,p] at c·np + p
	np      int          // the pair count deliv is laid out for
	avail   string       // avail[d]
}

// build is buildScheduleLP on a's buffers.
func (a *assembler) build(p *lp.Problem, in *alloc.Input, maxFail int, caps []float64, hard map[int]bool, stats *ScheduleStats) (alloc.FlowVars, map[topo.LinkID]int, error) {
	a.builds++
	fv, capIdx := a.addDemandLP(p, in, caps)
	soft := in
	if hard != nil {
		var ds []*demand.Demand
		for _, d := range in.Demands {
			if !hard[d.ID] {
				ds = append(ds, d)
			}
		}
		soft = in.WithDemands(ds)
	}
	if err := a.addAvailabilityAggregated(p, soft, fv, maxFail, stats); err != nil {
		return nil, nil, err
	}
	for _, d := range in.Demands {
		if hard[d.ID] && d.Target > 0 {
			if err := addHardGuarantee(p, in, fv, d, maxFail); err != nil {
				return nil, nil, err
			}
		}
	}
	for id, dl := range a.demands {
		if dl.build != a.builds {
			delete(a.demands, id)
		}
	}
	return fv, capIdx, nil
}

// demand returns what a keeps of d, marking it met by this build.
func (a *assembler) demand(d *demand.Demand) *demandLP {
	if a.demands == nil {
		a.demands = make(map[int]*demandLP, len(a.fv))
	}
	dl := a.demands[d.ID]
	if dl == nil {
		dl = &demandLP{}
		a.demands[d.ID] = dl
	}
	dl.build = a.builds
	return dl
}

// name1 returns (*names)[i], the name prefix[id,i] with tags' letters,
// building the names up to it on first use.
func name1(names *[]string, prefix, tags string, id, i int) string {
	var buf [32]byte
	if n := len(*names); n <= i {
		*names = slices.Grow(*names, i+1-n)
	}
	for k := len(*names); k <= i; k++ {
		*names = append(*names, string(alloc.AppendName(buf[:0], prefix, tags, id, k)))
	}
	return (*names)[i]
}

// name2 is name1 for the names prefix[id,i,j].
func name2(names *[][]string, prefix, tags string, id, i, j int) string {
	var buf [32]byte
	if n := len(*names); n <= i {
		*names = append(*names, make([][]string, i+1-n)...)
	}
	row := &(*names)[i]
	if n := len(*row); n <= j {
		*row = slices.Grow(*row, j+1-n)
	}
	for k := len(*row); k <= j; k++ {
		*row = append(*row, string(alloc.AppendName(buf[:0], prefix, tags, id, i, k)))
	}
	return (*row)[j]
}

// grow returns s with length n on s's array when it is large enough,
// keeping what s held.
func grow[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// addDemandLP adds the rows every scheduling LP shares: a flow variable
// per (demand, pair, tunnel) with the Eq. 6 capacity rows for caps —
// the LP alloc.AddFlowVars builds — with cost 1 on every flow (Eq. 7
// minimizes total allocated bandwidth), and the named Eq. 1
// full-bandwidth row of every pair. The map gives each link's
// capacity-row index.
func (a *assembler) addDemandLP(p *lp.Problem, in *alloc.Input, caps []float64) (alloc.FlowVars, map[topo.LinkID]int) {
	if a.fv == nil {
		a.fv, a.capIdx = make(alloc.FlowVars, len(in.Demands)), make(map[topo.LinkID]int)
	}
	clear(a.fv)
	clear(a.capIdx)
	a.linkTerms = grow(a.linkTerms, in.Net.NumLinks())
	for e := range a.linkTerms {
		a.linkTerms[e] = a.linkTerms[e][:0]
	}
	nTerms := 0
	for _, d := range in.Demands {
		dl := a.demand(d)
		dl.flows = grow(dl.flows, len(d.Pairs))
		for pi := range d.Pairs {
			tunnels := in.TunnelsFor(d, pi)
			dl.flows[pi] = grow(dl.flows[pi], len(tunnels))
			for ti, t := range tunnels {
				v := p.AddVariable(name2(&dl.f, "f", "dpt", d.ID, pi, ti), 0, math.Inf(1), 1)
				dl.flows[pi][ti] = v
				for _, e := range t.Links {
					a.linkTerms[e] = append(a.linkTerms[e], lp.Term{Var: v, Coef: 1})
				}
			}
			nTerms += len(tunnels)
		}
		a.fv[d.ID] = dl.flows
	}
	a.capNames = grow(a.capNames, len(a.linkTerms))
	var buf [32]byte
	for _, l := range in.Net.Links() {
		if len(a.linkTerms[l.ID]) == 0 {
			continue
		}
		if a.capNames[l.ID] == "" {
			a.capNames[l.ID] = string(alloc.AppendName(buf[:0], "cap", "e", int(l.ID)))
		}
		a.capIdx[l.ID] = p.NumConstraints()
		p.AddConstraint(lp.Constraint{
			Name:  a.capNames[l.ID],
			Terms: a.linkTerms[l.ID], Op: lp.LE, RHS: caps[l.ID],
		})
	}
	// Eq. 1: full bandwidth for every pair of every admitted demand.
	a.terms = slices.Grow(a.terms[:0], nTerms)
	for _, d := range in.Demands {
		dl := a.demands[d.ID]
		for pi, pr := range d.Pairs {
			if pr.Bandwidth <= 0 {
				continue
			}
			start := len(a.terms)
			for _, v := range a.fv[d.ID][pi] {
				a.terms = append(a.terms, lp.Term{Var: v, Coef: 1})
			}
			p.AddConstraint(lp.Constraint{
				Name:  name1(&dl.demand, "demand", "dp", d.ID, pi),
				Terms: a.terms[start:len(a.terms):len(a.terms)], Op: lp.GE, RHS: pr.Bandwidth,
			})
		}
	}
	return a.fv, a.capIdx
}

// subSolver adapts the scheduling-LP formulation to the partition
// package's SubSolver callback: one subproblem is the same LP over a
// demand subset with caller-chosen capacities, warm-started from the
// region's basis of the round before.
func subSolver(opts ScheduleOptions) partition.SubSolver {
	return func(sub *alloc.Input, caps []float64, warm *lp.Basis) (*partition.SubResult, error) {
		p := lp.NewProblem()
		stats := &ScheduleStats{}
		fv, capIdx, err := buildScheduleLP(p, sub, opts.MaxFail, caps, nil, stats)
		if err != nil {
			return nil, err
		}
		sol, err := p.SolveOpts(lp.Options{Warm: warm, Cancel: opts.Cancel})
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

// availability is one targeted demand's share of the Eq. 3-4
// assembly: its classes, B variables and rows, on buffers the
// assembler keeps by position.
type availability struct {
	d       *demand.Demand
	names   *demandLP
	classes []scenario.Class
	hit     bool
	bv      []lp.VarID
	rows    []lp.Constraint
	terms   []lp.Term
}

// addAvailabilityAggregated adds Eq. 3-4 using per-demand tunnel-state
// classes under the input's failure model: one B variable per (demand,
// class), B ∈ [0,1], delivered_{k,class} ≥ b_k·B, and
// Σ p_class·B ≥ β_d. The expensive pieces — scenario-class computation
// (memoized) and constraint-row construction — fan out over demands on
// the parallel pool; variables and constraints are then installed
// serially in the exact order the serial assembly used, so the LP
// (and therefore the simplex pivot sequence and the solution bytes)
// is identical at any worker count. stats may be nil.
func (a *assembler) addAvailabilityAggregated(p *lp.Problem, in *alloc.Input, fv alloc.FlowVars, maxFail int, stats *ScheduleStats) error {
	a.targeted = a.targeted[:0]
	for _, d := range in.Demands {
		if d.Target > 0 {
			a.targeted = append(a.targeted, d)
		}
	}
	if len(a.targeted) == 0 {
		return nil
	}
	a.jobs = grow(a.jobs, len(a.targeted))
	jobs := a.jobs
	pool := parallel.Default()
	ctx := context.Background()

	// Phase 1: scenario classes per demand, concurrent and memoized.
	err := pool.ForEach(ctx, len(jobs), func(i int) error {
		d := a.targeted[i]
		classes, hit, err := in.Classes(d, maxFail)
		if err != nil {
			return fmt.Errorf("bate: classes for demand %d: %w", d.ID, err)
		}
		jobs[i].d, jobs[i].classes, jobs[i].hit = d, classes, hit
		return nil
	})
	if err != nil {
		return err
	}

	// Phase 2 (serial): allocate the B variables in (demand, class)
	// order — the same VarID sequence the serial assembly produces.
	for i := range jobs {
		j := &jobs[i]
		d := j.d
		if j.names = a.demand(d); j.names.claimed == a.builds {
			// An ID the book holds twice: names of its own, so that no
			// two goroutines of phase 3 write the same ones.
			j.names = &demandLP{}
		}
		j.names.claimed = a.builds
		bonus := availabilityBonus(d)
		j.bv = grow(j.bv, len(j.classes))
		if n := len(j.classes); n > 0 {
			name1(&j.names.b, "B", "dc", d.ID, n-1) // all at once
		}
		for ci, cls := range j.classes {
			j.bv[ci] = p.AddVariable(name1(&j.names.b, "B", "dc", d.ID, ci), 0, 1, -bonus*cls.Prob)
		}
		if stats != nil {
			if j.hit {
				stats.ClassCacheHits++
			} else {
				stats.ClassCacheMisses++
			}
		}
	}

	// Phase 3: build the constraint rows concurrently; rows are pure
	// data referencing the pre-allocated variable ids.
	err = pool.ForEach(ctx, len(jobs), func(i int) error {
		jobs[i].buildRows(in, fv)
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

// buildRows builds the demand's Eq. 3-4 constraint rows into j.rows:
// per class, one delivered ≥ b·B row per pair; then the Σ p·B ≥ β row.
// The rows are pure data on j's own buffers and names, safe to build
// concurrently with other demands'.
func (j *availability) buildRows(in *alloc.Input, fv alloc.FlowVars) {
	d, flows, names := j.d, fv[j.d.ID], j.names
	var buf [32]byte
	if np := len(d.Pairs); names.np != np {
		names.deliv, names.np = names.deliv[:0], np
	}
	if n := len(j.classes) * names.np; len(names.deliv) < n {
		names.deliv = slices.Grow(names.deliv, n-len(names.deliv))
		for k := len(names.deliv); k < n; k++ {
			names.deliv = append(names.deliv, string(alloc.AppendName(buf[:0], "deliv", "dcp", d.ID, k/names.np, k%names.np)))
		}
	}
	if names.avail == "" {
		names.avail = string(alloc.AppendName(buf[:0], "avail", "d", d.ID))
	}
	nTerms := len(j.classes)
	for pi, pr := range d.Pairs {
		if pr.Bandwidth > 0 {
			nTerms += len(j.classes) * (len(flows[pi]) + 1)
		}
	}
	j.rows, j.terms = j.rows[:0], slices.Grow(j.terms[:0], nTerms)
	for ci, cls := range j.classes {
		for pi, pr := range d.Pairs {
			if pr.Bandwidth <= 0 {
				continue
			}
			start := len(j.terms)
			j.terms = append(fv.ClassTerms(j.terms, in, d, pi, cls), lp.Term{Var: j.bv[ci], Coef: -pr.Bandwidth})
			j.rows = append(j.rows, lp.Constraint{
				Name:  names.deliv[ci*names.np+pi],
				Terms: j.terms[start:len(j.terms):len(j.terms)], Op: lp.GE, RHS: 0,
			})
		}
	}
	start := len(j.terms)
	for ci, cls := range j.classes {
		j.terms = append(j.terms, lp.Term{Var: j.bv[ci], Coef: cls.Prob})
	}
	j.rows = append(j.rows, lp.Constraint{
		Name:  names.avail,
		Terms: j.terms[start:len(j.terms):len(j.terms)], Op: lp.GE, RHS: d.Target,
	})
}

// addAvailabilityEnumerated adds Eq. 3-4 with one B variable per
// explicit pruned scenario of the input's failure model, following the
// paper's formulation verbatim. Exponentially larger but numerically
// identical to the aggregated form. Like the aggregated path, row
// construction fans out over demands while variables and rows are
// installed serially in the original order.
func addAvailabilityEnumerated(p *lp.Problem, in *alloc.Input, fv alloc.FlowVars, maxFail int) error {
	set, err := scenario.Enumerate(in.Net, in.Groups, maxFail)
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
	_, capIdx, err := buildScheduleLP(p, in, opts.MaxFail, alloc.FullCapacities(in), nil, nil)
	if err != nil {
		return nil, err
	}
	sol, err := p.Solve()
	if err != nil {
		return nil, fmt.Errorf("bate: link prices: %w", err)
	}
	prices := make(map[topo.LinkID]float64, len(capIdx))
	for link, idx := range capIdx {
		// 0 - d, not -d: an unsaturated link's dual is +0, and its
		// price must print as 0, not -0.
		prices[link] = 0 - sol.Dual(idx)
	}
	return prices, nil
}
