package partition

import (
	"context"
	"errors"
	"fmt"

	"bate/internal/alloc"
	"bate/internal/lp"
	"bate/internal/metrics"
	"bate/internal/parallel"
	"bate/internal/topo"
)

// Hierarchical-scheduling health counters. partition.solves counts
// rounds the decomposition served end to end; partition.fallbacks the
// rounds bounced back to the global LP (the two sum to the rounds that
// attempted partitioning). The gauges record the largest region count
// and the worst observed gap bound (parts-per-million).
var (
	solvesCtr    = metrics.NewCounter("partition.solves")
	fallbacksCtr = metrics.NewCounter("partition.fallbacks")
	cutCtr       = metrics.NewCounter("partition.cut_demands")
	intraCtr     = metrics.NewCounter("partition.intra_demands")
	regionsGauge = metrics.NewMaxGauge("partition.regions")
	gapGauge     = metrics.NewMaxGauge("partition.max_gap_ppm")
)

// FallbackError reports that partitioned scheduling declined this
// round and the caller should run the global solve. It is a policy
// signal, not a failure: the decomposition either does not apply
// (demand spans too many regions, a region subproblem went infeasible
// under its residual capacities) or its quality bound is too loose.
type FallbackError struct{ Reason string }

func (e *FallbackError) Error() string { return "partition: fallback: " + e.Reason }

func fallback(format string, args ...interface{}) error {
	fallbacksCtr.Inc()
	return &FallbackError{Reason: fmt.Sprintf(format, args...)}
}

// SubResult is one sub-LP solve's output, produced by the SubSolver
// the caller supplies.
type SubResult struct {
	Alloc     alloc.Allocation
	Objective float64
	// CapDuals holds the raw dual of each link-capacity row (<= 0 for
	// the minimization: one more Mbps of capacity can only lower the
	// objective). Links without a capacity row are absent.
	CapDuals map[topo.LinkID]float64
	Basis    *lp.Basis

	Variables, Constraints, Iterations int
	WarmStarted                        bool
	WarmFallback                       string // lp.Solution.WarmFallback
	ClassCacheHits, ClassCacheMisses   int
}

// SubSolver builds and solves one scheduling sub-LP: the given demands
// over the full network but with the given per-link capacities,
// optionally warm-started from a previous basis. Implemented by
// internal/bate so this package stays free of the LP formulation.
type SubSolver func(in *alloc.Input, caps []float64, warm *lp.Basis) (*SubResult, error)

// Stats reports one partitioned round.
type Stats struct {
	Regions      int
	IntraDemands int
	CutDemands   int
	// GapBound is the proved relative bound on how far the stitched
	// objective can sit above the global optimum.
	GapBound float64

	Variables, Constraints, Iterations int
	WarmStarted                        bool
	WarmFallback                       string // first sub-LP's reason, if any
	ClassCacheHits, ClassCacheMisses   int
}

// Result is a successful partitioned schedule.
type Result struct {
	Alloc alloc.Allocation
	Stats Stats
}

// State carries warm-start context between successive partitioned
// rounds: the cached partition (recomputed only when the network or k
// changes) and the previous optimal basis of the coordination LP and
// of every region LP. Not safe for concurrent use.
type State struct {
	net         *topo.Network
	k           int
	part        *Partition
	coordBasis  *lp.Basis
	regionBases []*lp.Basis
}

// partition returns the cached partition, recomputing on any change of
// network identity or region count.
func (st *State) partition(net *topo.Network, opts Options) *Partition {
	if st.part == nil || st.net != net || st.k != opts.Regions {
		st.net, st.k = net, opts.Regions
		st.part = New(net, opts.Regions, opts.GeoHint)
		st.coordBasis = nil
		st.regionBases = make([]*lp.Basis, st.part.Regions)
	}
	return st.part
}

// Schedule runs one hierarchical round: coordination solve for the
// cross-region demands over the full capacities, then the per-region
// LPs concurrently over what the cross traffic left behind, then the
// duality-gap check. st may be nil for a one-shot solve. It returns a
// *FallbackError when the caller should run the global LP instead;
// any other error is a genuine failure.
func Schedule(in *alloc.Input, opts Options, solve SubSolver, st *State) (*Result, error) {
	if opts.Regions <= 1 {
		return nil, fallback("k=%d disables partitioning", opts.Regions)
	}
	if st == nil {
		st = &State{}
	}
	part := st.partition(in.Net, opts)
	if part.Regions <= 1 {
		return nil, fallback("partition collapsed to %d region(s)", part.Regions)
	}
	groups := part.Classify(in)
	if groups.MaxSpan > opts.maxSpan() {
		return nil, fallback("a demand's tunnels span %d regions (max %d)", groups.MaxSpan, opts.maxSpan())
	}

	full := alloc.FullCapacities(in)
	stats := Stats{Regions: part.Regions, IntraDemands: 0, CutDemands: len(groups.Cross)}
	for _, ds := range groups.Intra {
		stats.IntraDemands += len(ds)
	}
	stats.WarmStarted = true
	merge := func(r *SubResult) {
		stats.Variables += r.Variables
		stats.Constraints += r.Constraints
		stats.Iterations += r.Iterations
		stats.ClassCacheHits += r.ClassCacheHits
		stats.ClassCacheMisses += r.ClassCacheMisses
		stats.WarmStarted = stats.WarmStarted && r.WarmStarted
		if stats.WarmFallback == "" {
			stats.WarmFallback = r.WarmFallback
		}
	}

	// Phase 1 — coordination: the cross-region demands compete for the
	// cut links (and whatever intra-region links their tunnels ride)
	// at full capacity. Its allocation is the border-bandwidth budget:
	// each region's LP then sees only the leftover capacity.
	residual := full
	upperBound := 0.0
	coordLB := 0.0
	var coordAlloc alloc.Allocation
	if len(groups.Cross) > 0 {
		coordIn := &alloc.Input{Net: in.Net, Tunnels: in.Tunnels, Demands: groups.Cross}
		res, err := solve(coordIn, full, st.coordBasis)
		if err != nil {
			if errors.Is(err, lp.ErrInfeasible) {
				// Cross demands alone don't fit at full capacity; the
				// global LP will prove (in)feasibility authoritatively.
				return nil, fallback("coordination LP infeasible")
			}
			return nil, err
		}
		st.coordBasis = res.Basis
		merge(res)
		upperBound += res.Objective
		coordLB = res.Objective
		loads := res.Alloc.LinkLoads(coordIn)
		residual = make([]float64, len(full))
		for i := range full {
			residual[i] = full[i] - loads[i]
			if residual[i] < 0 {
				residual[i] = 0
			}
		}
		coordAlloc = res.Alloc
	}

	// Phase 2 — the region LPs are independent (an intra-region
	// demand's tunnels never leave its region, so no two regions share
	// a capacity row) and solve concurrently on the shared pool. Index-
	// slotted results keep the round deterministic at any worker count.
	results := make([]*SubResult, part.Regions)
	err := parallel.Default().ForEach(context.Background(), part.Regions, func(r int) error {
		if len(groups.Intra[r]) == 0 {
			return nil
		}
		sub := &alloc.Input{Net: in.Net, Tunnels: in.Tunnels, Demands: groups.Intra[r]}
		res, err := solve(sub, residual, st.regionBases[r])
		if err != nil {
			return fmt.Errorf("region %d: %w", r, err)
		}
		results[r] = res
		return nil
	})
	if err != nil {
		if errors.Is(err, lp.ErrInfeasible) {
			return nil, fallback("region LP infeasible under residual capacities (%v)", err)
		}
		return nil, err
	}

	// Phase 3 — stitch and bound. The stitched objective (UB) is the
	// sum of the subproblem objectives; the lower bound on the global
	// optimum comes from LP duality: each region's value at full
	// capacity is at least its value at residual capacity plus
	// dual·(full-residual), duals being subgradients of the LP value
	// in the RHS. Cross demands contribute their coordination value
	// unchanged (they already solved at full capacity).
	out := make(alloc.Allocation, len(in.Demands))
	lowerBound := coordLB // coordination part
	for r, res := range results {
		if res == nil {
			continue
		}
		st.regionBases[r] = res.Basis
		merge(res)
		upperBound += res.Objective
		bound := res.Objective
		for e, y := range res.CapDuals {
			if delta := full[e] - residual[e]; delta > 0 {
				bound += y * delta // y <= 0: full capacity can only help
			}
		}
		lowerBound += bound
		for id, rows := range res.Alloc {
			out[id] = rows
		}
	}
	for id, rows := range coordAlloc {
		out[id] = rows
	}
	denom := lowerBound
	if denom < 1 {
		denom = 1
	}
	stats.GapBound = (upperBound - lowerBound) / denom
	gapGauge.Observe(int64(stats.GapBound * 1e6))
	if stats.GapBound > opts.gapThreshold() {
		return nil, fallback("gap bound %.4f exceeds threshold %.4f", stats.GapBound, opts.gapThreshold())
	}

	solvesCtr.Inc()
	intraCtr.Add(int64(stats.IntraDemands))
	cutCtr.Add(int64(stats.CutDemands))
	regionsGauge.Observe(int64(part.Regions))
	return &Result{Alloc: out, Stats: stats}, nil
}
