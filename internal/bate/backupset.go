package bate

import (
	"fmt"
	"sort"
	"strings"

	"bate/internal/alloc"
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
type BackupSet struct {
	Depth int
	// One-demand LPs the pass solved (the no-failure run's included)
	// and fits it took from the no-failure run instead.
	FitsSolved, FitsReused int
	byKey                  map[string]*RecoveryResult
	skipped                int
}

// comboKey canonicalizes a failure set.
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
	bs := &BackupSet{Depth: depth, byKey: make(map[string]*RecoveryResult)}
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

// For returns the precomputed recovery for a failure set, if covered.
func (bs *BackupSet) For(down []topo.LinkID) (*RecoveryResult, bool) {
	if bs == nil || len(down) == 0 {
		return nil, false
	}
	r, ok := bs.byKey[comboKey(down)]
	return r, ok
}

// Len returns the number of precomputed combinations.
func (bs *BackupSet) Len() int { return len(bs.byKey) }

// Skipped reports how many combinations the budget excluded.
func (bs *BackupSet) Skipped() int { return bs.skipped }
