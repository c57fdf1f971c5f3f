package bate

import (
	"fmt"
	"sort"
	"strings"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/topo"
)

// BackupSet holds precomputed greedy recovery allocations for failure
// combinations up to a given depth (§3.4 footnote: the single-link
// backup scheme "can be easily extended to deal with concurrent
// failures"). Combinations are precomputed most-probable-first so a
// bounded budget covers the failures that actually happen.
//
// The allocations share rows with each other and with the no-failure
// run they were propagated from: all of a BackupSet is read-only.
//
// A set knows the book it was planned for: the demands (by pointer,
// keyed by ID) and the drained links of its input. For refuses it
// once the book holds a demand the set never planned or the drain set
// has changed, so a failure between rounds never pushes plans that
// leave an admitted demand out or route over a drained link.
type BackupSet struct {
	Depth int
	// One-demand LPs the pass solved (the no-failure run's included)
	// and fits it took from the no-failure run instead.
	FitsSolved, FitsReused int
	// Root is the optimal basis of the relaxation of Eq. 12 with no
	// link failed (PlanRoot), nil until planned. It is a basis of the
	// model PlanRoot keeps, which Recover's optimal rung solves a
	// failure on as bound changes while the book is the planned one;
	// on any other book the rung rebuilds Eq. 12 and starts from Root
	// by name, the failure's zeroed links and the book's changes a few
	// dual pivots away.
	Root  *lp.Basis
	model *rootModel
	book
	byKey   map[string]*RecoveryResult
	skipped int
}

// book is what a plan was made for: its input's demands (by pointer,
// keyed by ID) and drained links.
type book struct {
	planned map[int]*demand.Demand
	drained string // comboKey of the input's drained links
}

func bookOf(in *alloc.Input) book {
	b := book{planned: make(map[int]*demand.Demand, len(in.Demands)), drained: comboKey(in.Drained)}
	for _, d := range in.Demands {
		b.planned[d.ID] = d
	}
	return b
}

// changed says how in differs from the planned book, up to
// withdrawals: ModelRound when it does not.
func (b *book) changed(in *alloc.Input) RecoveryModel {
	if comboKey(in.Drained) != b.drained {
		return ModelDrainsChanged
	}
	for _, d := range in.Demands {
		if b.planned[d.ID] != d {
			return ModelBookChanged
		}
	}
	return ModelRound
}

// comboKey canonicalizes a link set: a failure set, or a drain set.
func comboKey(down []topo.LinkID) string {
	ids := append([]topo.LinkID(nil), down...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var b strings.Builder
	for i, id := range ids {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", id)
	}
	return b.String()
}

// PrecomputeBackups computes greedy recovery allocations for every
// combination of at most depth concurrent link failures, capped at
// maxCombos combinations chosen in decreasing probability (the product
// of the failed links' failure probabilities). maxCombos <= 0 means
// no cap. Algorithm 2 runs once with no link failed; each combination's
// run is propagated from it and equals RecoverGreedy(in, combo) bitwise.
func PrecomputeBackups(in *alloc.Input, depth, maxCombos int) (*BackupSet, error) {
	if depth < 1 {
		depth = 1
	}
	type combo struct {
		links []topo.LinkID
		prob  float64
	}
	var combos []combo
	links := in.Net.Links()
	var rec func(start int, cur []topo.LinkID, prob float64)
	rec = func(start int, cur []topo.LinkID, prob float64) {
		if len(cur) > 0 {
			combos = append(combos, combo{links: append([]topo.LinkID(nil), cur...), prob: prob})
		}
		if len(cur) == depth {
			return
		}
		for i := start; i < len(links); i++ {
			rec(i+1, append(cur, links[i].ID), prob*links[i].FailProb)
		}
	}
	rec(0, nil, 1)
	sort.SliceStable(combos, func(i, j int) bool {
		// Shallower combos first at equal probability; otherwise most
		// probable first.
		if combos[i].prob != combos[j].prob {
			return combos[i].prob > combos[j].prob
		}
		return len(combos[i].links) < len(combos[j].links)
	})
	bs := &BackupSet{Depth: depth, book: bookOf(in), byKey: make(map[string]*RecoveryResult)}
	w := newGreedyWalk(in)
	_, fitted := w.run(nil)
	copy(w.base, fitted)
	for i, c := range combos {
		if maxCombos > 0 && i >= maxCombos {
			bs.skipped = len(combos) - i
			break
		}
		bs.byKey[comboKey(c.links)], _ = w.run(c.links)
	}
	bs.FitsSolved, bs.FitsReused = w.solved, w.reused
	backupFitsSolved.Add(int64(w.solved))
	backupFitsReused.Add(int64(w.reused))
	return bs, nil
}

// PlanRoot builds Eq. 12 over in with no link failed and binary y,
// solves its LP relaxation warm-started from prev's Root when there is
// one, and keeps the model as the set's, with its optimal basis as
// bs.Root. It reports the solve's pivots and whether it started warm.
// Unlike For, the root outlives book changes: it is a hint that the
// optimal rung repairs, never a plan it serves. in must not change
// after the call.
func (bs *BackupSet) PlanRoot(in *alloc.Input, prev *BackupSet) (pivots int, warm bool, err error) {
	var opts lp.Options
	if prev != nil {
		opts.Warm = prev.Root
	}
	p, fv, yv := recoveryLP(in, nil, true)
	sol, err := p.SolveRelaxation(opts)
	if err != nil {
		return sol.Iterations, sol.WarmStarted, fmt.Errorf("bate: recovery root: %w", err)
	}
	bs.Root = sol.Basis()
	bs.model = &rootModel{book: bookOf(in), in: in, p: p, fv: fv, yv: yv}
	bs.model.lo, bs.model.hi = p.Bounds()
	return sol.Iterations, sol.WarmStarted, nil
}

// modelFor returns the set's planned model when in is its book up to
// withdrawals, and which model the optimal rung solves on in.
func (bs *BackupSet) modelFor(in *alloc.Input) (*rootModel, RecoveryModel) {
	if bs == nil || bs.model == nil {
		return nil, ModelNoPlan
	}
	m := bs.model
	if in.Net != m.in.Net || in.Tunnels != m.in.Tunnels {
		return nil, ModelBookChanged
	}
	if why := m.changed(in); why != ModelRound {
		return nil, why
	}
	return m, ModelRound
}

// For returns the precomputed recovery for a failure set, if covered
// and if the set was planned for in's book: every demand of in was
// planned (the same *demand.Demand under its ID) and in drains the
// same links. A withdrawn demand keeps the set valid; its rows are
// simply off the book.
func (bs *BackupSet) For(in *alloc.Input, down []topo.LinkID) (*RecoveryResult, bool) {
	if bs == nil || len(down) == 0 || bs.changed(in) != ModelRound {
		return nil, false
	}
	r, ok := bs.byKey[comboKey(down)]
	return r, ok
}

// Len returns the number of precomputed combinations.
func (bs *BackupSet) Len() int { return len(bs.byKey) }

// Skipped reports how many combinations the budget excluded.
func (bs *BackupSet) Skipped() int { return bs.skipped }
