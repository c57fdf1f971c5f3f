package bate

import (
	"context"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/metrics"
	"bate/internal/parallel"
)

// AdmitBatch admits a batch of simultaneous arrivals with the same
// decisions, in the same order, that calling Admit once per demand
// would make — but with the expensive per-demand evaluations run
// concurrently.
//
// The §3.2 strategy is inherently sequential: each admit changes the
// residual capacity the next check sees. AdmitBatch therefore splits
// the work into a speculation phase and a commit phase. First every
// candidate is evaluated in parallel against the frozen pre-batch
// state. Then candidates are committed serially in input order; a
// speculative result is reused only when it is provably identical to
// what the serial evaluation would produce —
//
//   - nothing earlier in the batch has been admitted yet, so the state
//     the speculation saw is still the true state; or
//   - the speculation admitted via the fixed-allocation check
//     (MethodFixed) and the candidate's tunnels share no link with any
//     earlier in-batch admit. AdmitFixed's LP constrains only the
//     residual capacity of links carrying the candidate's own tunnels,
//     so a disjoint footprint means the earlier admits cannot have
//     changed its inputs.
//
// Every other case — rejections and conjecture admits after the state
// has moved, or fixed admits with overlapping footprints — is
// re-evaluated serially against the up-to-date state, exactly as the
// serial loop would.

// Counters for batch admission speculation efficacy.
var (
	batchDemands   = metrics.NewCounter("bate.batch.demands")
	batchSpecHits  = metrics.NewCounter("bate.batch.spec_reused")
	batchFallbacks = metrics.NewCounter("bate.batch.serial_fallback")
)

// BatchOptions tunes AdmitBatch.
type BatchOptions struct {
	// MaxFail is the scenario-pruning depth (defaults to 2, like
	// ScheduleOptions).
	MaxFail int
}

// BatchDecision pairs one batch demand with its admission outcome.
type BatchDecision struct {
	Demand *demand.Demand
	Result *AdmissionResult
	// Speculative reports that the decision was served from the
	// parallel speculation phase rather than a serial re-evaluation.
	Speculative bool
}

// BatchResult reports the decided prefix of the batch and any
// undecided remainder.
type BatchResult struct {
	// Decisions holds one entry per decided demand, in input order.
	Decisions []BatchDecision
	// Deferred is the undecided tail after a conjecture admit; empty
	// otherwise. A conjecture admit carries only a temporary, possibly
	// partial allocation (§3.2 footnote 5) and calls for a scheduling
	// round right away, so the batch stops there: the caller runs the
	// round and re-batches Deferred against the rescheduled state.
	Deferred []*demand.Demand
	// Allocations maps each admitted demand's ID to its new allocation
	// (identical to the corresponding Result.NewAlloc).
	Allocations alloc.Allocation
	// SpecReused and SerialFallbacks count how decisions were obtained.
	SpecReused      int
	SerialFallbacks int
}

// EndsInConjecture reports whether the decided prefix ends with a
// conjecture admit: the caller owes a scheduling round before it
// re-batches Deferred.
func (r *BatchResult) EndsInConjecture() bool {
	n := len(r.Decisions)
	return n > 0 && r.Decisions[n-1].Result.Method == MethodConjecture
}

// AdmitBatch runs the full admission strategy over a batch of
// arrivals. in.Demands and admitted must list the currently active
// demands (the same contract as Admit); current is their allocation.
// Neither is mutated. The batch stops after its first conjecture admit
// and returns the rest in Deferred.
func AdmitBatch(in *alloc.Input, current alloc.Allocation, admitted []*demand.Demand, batch []*demand.Demand, opts BatchOptions) (*BatchResult, error) {
	if opts.MaxFail <= 0 {
		opts.MaxFail = 2
	}
	batchDemands.Add(int64(len(batch)))
	res := &BatchResult{Allocations: alloc.Allocation{}}
	if len(batch) == 0 {
		return res, nil
	}

	// Speculation: evaluate every candidate against the frozen
	// pre-batch state. Admit only reads in/current/admitted, so the
	// evaluations are independent. Errors are recorded per candidate,
	// not raised here: the serial loop only hits an error once it
	// reaches that demand with the state unchanged.
	type speculation struct {
		res *AdmissionResult
		err error
	}
	// Speculation is wasted work whenever it cannot overlap: the serial
	// commit re-evaluates every candidate it cannot reuse, so with a
	// single worker the phase would only double the cost. Skip it and
	// let the commit loop degenerate into the plain serial strategy —
	// the decisions are identical either way.
	pool := parallel.Default()
	speculate := pool.Size() > 1 && len(batch) > 1
	specs := make([]speculation, len(batch))
	if speculate {
		perr := pool.ForEach(context.Background(), len(batch), func(i int) error {
			specs[i].res, specs[i].err = Admit(in, current, admitted, batch[i], opts.MaxFail)
			return nil
		})
		if perr != nil {
			return nil, perr
		}
	}

	// Commit serially in input order.
	cur := make(alloc.Allocation, len(current)+len(batch))
	for id, rows := range current {
		cur[id] = rows
	}
	adm := append([]*demand.Demand(nil), admitted...)
	touched := make([]bool, in.Net.NumLinks()) // links of in-batch admits
	batchAdmits := 0
	for i, d := range batch {
		var decision *AdmissionResult
		speculative := false
		switch {
		case speculate && batchAdmits == 0:
			// State unchanged since speculation: any outcome is exact.
			if specs[i].err != nil {
				return nil, specs[i].err
			}
			decision, speculative = specs[i].res, true
		case speculate && specs[i].err == nil && specs[i].res.Admitted &&
			specs[i].res.Method == MethodFixed && footprintDisjoint(in, d, touched):
			decision, speculative = specs[i].res, true
		default:
			live := *in
			live.Demands = adm
			var err error
			decision, err = Admit(&live, cur, adm, d, opts.MaxFail)
			if err != nil {
				return nil, err
			}
		}
		if speculative {
			res.SpecReused++
			batchSpecHits.Inc()
		} else {
			res.SerialFallbacks++
			batchFallbacks.Inc()
		}
		res.Decisions = append(res.Decisions, BatchDecision{Demand: d, Result: decision, Speculative: speculative})
		if !decision.Admitted {
			continue
		}
		cur[d.ID] = decision.NewAlloc
		res.Allocations[d.ID] = decision.NewAlloc
		adm = append(adm, d)
		batchAdmits++
		markFootprint(in, d, touched)
		if decision.Method == MethodConjecture {
			res.Deferred = append(res.Deferred, batch[i+1:]...)
			break
		}
	}
	return res, nil
}

// markFootprint marks every link traversed by any of d's tunnels.
// This over-approximates the links whose residual capacity an admit of
// d can change (allocation is zero on some tunnels), which keeps the
// disjointness test sound.
func markFootprint(in *alloc.Input, d *demand.Demand, touched []bool) {
	for pi := range d.Pairs {
		for _, t := range in.TunnelsFor(d, pi) {
			for _, e := range t.Links {
				touched[e] = true
			}
		}
	}
}

// footprintDisjoint reports whether none of d's tunnel links has been
// touched by an earlier in-batch admit.
func footprintDisjoint(in *alloc.Input, d *demand.Demand, touched []bool) bool {
	for pi := range d.Pairs {
		for _, t := range in.TunnelsFor(d, pi) {
			for _, e := range t.Links {
				if touched[e] {
					return false
				}
			}
		}
	}
	return true
}
