package bate

import (
	"context"
	"fmt"
	"time"

	"bate/internal/alloc"
	"bate/internal/lp"
	"bate/internal/metrics"
	"bate/internal/topo"
)

// The deadline-bounded recovery pipeline: when links fail, the
// controller must install a rerouted allocation before the outage is
// user-visible, so recovery quality degrades in stages rather than
// blocking on the best answer — precomputed backup plan, then a
// node-budgeted MILP racing the remaining deadline, then the
// Algorithm 2 greedy as the floor that always lands. Every rung down
// the ladder increments bate.recovery_fallback.

var (
	recBackupHits = metrics.NewCounter("bate.recovery_backup_hits")
	recOptimal    = metrics.NewCounter("bate.recovery_optimal")
	recGreedy     = metrics.NewCounter("bate.recovery_greedy")
	recFallback   = metrics.NewCounter("bate.recovery_fallback")
	recMaxMs      = metrics.NewMaxGauge("bate.recovery_max_ms")
	// Algorithm 2's one-demand LPs, and fits a backup pass did not solve.
	backupFitsSolved = metrics.NewCounter("bate.backup_fits_solved")
	backupFitsReused = metrics.NewCounter("bate.backup_fits_reused")
)

// RecoveryStage identifies which rung of the degraded-mode ladder
// produced a recovery allocation.
type RecoveryStage int8

// Ladder rungs, best first.
const (
	StageBackup RecoveryStage = iota
	StageOptimal
	StageGreedy
)

func (s RecoveryStage) String() string {
	switch s {
	case StageBackup:
		return "backup"
	case StageOptimal:
		return "optimal"
	case StageGreedy:
		return "greedy"
	}
	return "unknown"
}

// RecoverOptions tunes the deadline-bounded recovery pipeline.
type RecoverOptions struct {
	// Backups are the precomputed §3.4 plans; a covered failure set is
	// served from here instantly.
	Backups *BackupSet
	// Deadline bounds the whole Recover call. The optimal stage gets
	// most of it; the greedy floor keeps a reserve. <= 0 means 2s.
	Deadline time.Duration
	// MaxNodes bounds the optimal stage's branch-and-bound search so a
	// hard MILP degrades to its incumbent instead of running away from
	// the deadline. <= 0 means 20000.
	MaxNodes int
	// Gate, when non-nil, is consulted before each solver-backed stage
	// ("recover"); an error skips the stage. The chaos solver front
	// hooks in here.
	Gate func(op string) error
	// Logf receives stage-transition diagnostics; nil silences them.
	Logf func(string, ...interface{})
}

func (o *RecoverOptions) deadline() time.Duration {
	if o.Deadline <= 0 {
		return 2 * time.Second
	}
	return o.Deadline
}

func (o *RecoverOptions) maxNodes() int {
	if o.MaxNodes <= 0 {
		return 20000
	}
	return o.MaxNodes
}

func (o *RecoverOptions) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Recover computes a rerouted allocation for the failure set within
// opts.Deadline, degrading through the ladder: precomputed backup →
// budgeted optimal MILP → greedy 2-approximation. It never returns an
// absent recovery: the greedy floor is pure bounded computation, so
// the worst outcome is a 2-approximate allocation, not a miss. The
// reported stage tells the caller (and the soak harness) which rung
// answered.
func Recover(in *alloc.Input, down []topo.LinkID, opts RecoverOptions) (*RecoveryResult, RecoveryStage, error) {
	start := time.Now()
	defer func() { recMaxMs.Observe(time.Since(start).Milliseconds()) }()

	if r, ok := opts.Backups.For(down); ok {
		recBackupHits.Inc()
		return r, StageBackup, nil
	}
	recFallback.Inc()
	opts.logf("bate: recovery for %v: no precomputed backup, falling back to budgeted optimal", down)

	if r := recoverOptimalBudgeted(in, down, &opts, start); r != nil {
		recOptimal.Inc()
		return r, StageOptimal, nil
	}
	recFallback.Inc()

	r, err := RecoverGreedy(in, down)
	if err != nil {
		// Greedy cannot fail on a well-formed input; surface rather
		// than invent an allocation.
		return nil, StageGreedy, fmt.Errorf("bate: greedy recovery floor: %w", err)
	}
	recGreedy.Inc()
	opts.logf("bate: recovery for %v: greedy floor answered after %v (profit %.1f)", down, time.Since(start), r.Profit)
	return r, StageGreedy, nil
}

// recoverOptimalBudgeted races the node-budgeted MILP against the
// share of the deadline the greedy floor can spare. Returns nil when
// the stage is skipped (gate denial), errors, or loses the race. The
// deadline also feeds the solver's Cancel hook, so a losing solve
// aborts mid-pivot instead of burning a core in the background until
// its node budget runs out.
func recoverOptimalBudgeted(in *alloc.Input, down []topo.LinkID, opts *RecoverOptions, start time.Time) *RecoveryResult {
	if opts.Gate != nil {
		if err := opts.Gate("recover"); err != nil {
			opts.logf("bate: recovery for %v: optimal stage gated: %v", down, err)
			return nil
		}
	}
	// Keep a reserve for the greedy floor; it is cheap but not free.
	budget := opts.deadline()*8/10 - time.Since(start)
	if budget <= 0 {
		opts.logf("bate: recovery for %v: no deadline budget left for optimal stage", down)
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	type outcome struct {
		r   *RecoveryResult
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		// Named: only the revised engine polls Cancel and warm-starts a
		// node from its parent; EngineAuto is the dense tableau here.
		r, err := RecoverOptimalOpts(in, down, lp.Options{Engine: lp.EngineRevised, MaxNodes: opts.maxNodes(), Cancel: ctx.Err})
		ch <- outcome{r, err}
	}()
	t := time.NewTimer(budget)
	defer t.Stop()
	select {
	case out := <-ch:
		if out.err != nil {
			opts.logf("bate: recovery for %v: optimal stage failed: %v", down, out.err)
			return nil
		}
		return out.r
	case <-t.C:
		opts.logf("bate: recovery for %v: optimal stage missed its %v budget", down, budget)
		return nil
	}
}
