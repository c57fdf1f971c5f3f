package soak

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// chaosSeeds reads the seed list from CHAOS_SEEDS (comma-separated;
// CI injects two fixed seeds plus one rotating from the run number).
func chaosSeeds(t *testing.T) []int64 {
	env := os.Getenv("CHAOS_SEEDS")
	if env == "" {
		env = "1,7"
	}
	var seeds []int64
	for _, f := range strings.Split(env, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEEDS entry %q: %v", f, err)
		}
		seeds = append(seeds, v)
	}
	return seeds
}

// TestChaosSoak is the headline robustness harness: a full elected
// controller stack under seeded wire, filesystem and solver faults.
// Per seed it asserts the degraded-mode invariants, then replays the
// same seed into a fresh directory and demands a byte-identical
// compacted end state.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	const deadline = 750 * time.Millisecond
	logf := func(string, ...interface{}) {}
	if os.Getenv("CHAOS_VERBOSE") != "" {
		logf = t.Logf
	}
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			artifact := ""
			if dir := os.Getenv("CHAOS_ARTIFACT_DIR"); dir != "" {
				artifact = filepath.Join(dir, fmt.Sprintf("soak-seed-%d.json", seed))
			}
			runOnce := func(tag string) *Report {
				rep, err := Run(Config{
					Seed: seed, Dir: t.TempDir(),
					RecoveryDeadline: deadline,
					ArtifactPath:     artifact,
					Logf:             logf,
				})
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				return rep
			}
			rep := runOnce("run")

			// At most one master: all three replicas agreed.
			if !rep.LeaderAgreed {
				t.Fatal("replicas did not agree on a leader")
			}
			// No acked admission lost, no double admission: the final
			// book is exactly the acked set minus the withdrawals.
			want := surviving(rep.AckedIDs, rep.WithdrawnIDs)
			if !reflect.DeepEqual(rep.FinalIDs, want) {
				t.Errorf("final book %v, want acked-minus-withdrawn %v", rep.FinalIDs, want)
			}
			if len(rep.AckedIDs) < 2 {
				t.Errorf("only %d demands acked; the plan needs at least the two withdrawals", len(rep.AckedIDs))
			}
			// Every link failure recovered, and by the planned rungs:
			// one backup hit and one deeper-than-backup miss per episode.
			if rep.DownEvents != 4 {
				t.Errorf("saw %d down events, want 4", rep.DownEvents)
			}
			if got := rep.BackupHits + rep.Optimal + rep.Greedy; got != int64(rep.DownEvents) {
				t.Errorf("%d recoveries for %d down events — a failure went unrecovered", got, rep.DownEvents)
			}
			if rep.BackupHits != 2 {
				t.Errorf("backup hits = %d, want 2", rep.BackupHits)
			}
			if rep.Greedy < 1 {
				t.Errorf("greedy floor never used (gated recovery should force it)")
			}
			if rep.Fallbacks < 3 {
				t.Errorf("bate.recovery_fallback advanced by %d, want >= 3", rep.Fallbacks)
			}
			if rep.SolverDenials != 2 {
				t.Errorf("solver denials = %d, want 2 (one schedule, one recover)", rep.SolverDenials)
			}
			if rep.MaxRecoveryMs > (2 * deadline).Milliseconds() {
				t.Errorf("max recovery %dms exceeds 2x the %v deadline", rep.MaxRecoveryMs, deadline)
			}
			// The partition window must have cost broker-DC1 its session.
			if rep.Reconnects < 1 {
				t.Errorf("broker.reconnects advanced by %d, want >= 1", rep.Reconnects)
			}
			// The chaos fs cadence guarantees injected append faults; all
			// must have been repaired and retried, none surfaced to a client.
			if rep.StoreRepairs < 1 {
				t.Errorf("store.append_repairs advanced by %d, want >= 1", rep.StoreRepairs)
			}
			if rep.Digest == "" {
				t.Fatal("no end-state digest")
			}

			// Same seed, fresh directory: byte-identical end state.
			replay := runOnce("replay")
			if replay.Digest != rep.Digest {
				t.Errorf("replay digest %s != original %s", replay.Digest, rep.Digest)
			}
			if replay.FinalEpoch != rep.FinalEpoch {
				t.Errorf("replay epoch %d != original %d", replay.FinalEpoch, rep.FinalEpoch)
			}
			if !reflect.DeepEqual(replay.AckedIDs, rep.AckedIDs) {
				t.Errorf("replay acked %v != original %v", replay.AckedIDs, rep.AckedIDs)
			}
			if !reflect.DeepEqual(replay.FinalIDs, rep.FinalIDs) {
				t.Errorf("replay book %v != original %v", replay.FinalIDs, rep.FinalIDs)
			}
		})
	}
}

// TestChaosSoakPartitioned runs the soak with hierarchical scheduling
// enabled: the decomposition must not cost determinism (same seed
// replays byte-identical) nor change a single admission or election
// decision relative to the global-LP soak.
func TestChaosSoakPartitioned(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	const deadline = 750 * time.Millisecond
	logf := func(string, ...interface{}) {}
	if os.Getenv("CHAOS_VERBOSE") != "" {
		logf = t.Logf
	}
	seed := chaosSeeds(t)[0]
	runOnce := func(tag string, partitions int) *Report {
		rep, err := Run(Config{
			Seed: seed, Dir: t.TempDir(),
			RecoveryDeadline: deadline,
			Partitions:       partitions,
			Logf:             logf,
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return rep
	}
	part := runOnce("partitioned", 2)
	if !part.LeaderAgreed {
		t.Fatal("partitioned soak: replicas did not agree on a leader")
	}
	if part.Digest == "" {
		t.Fatal("partitioned soak: no end-state digest")
	}

	// Same seed, same partitioning, fresh directory: byte-identical.
	replay := runOnce("partitioned-replay", 2)
	if replay.Digest != part.Digest {
		t.Errorf("partitioned replay digest %s != original %s", replay.Digest, part.Digest)
	}
	if !reflect.DeepEqual(replay.AckedIDs, part.AckedIDs) {
		t.Errorf("partitioned replay acked %v != original %v", replay.AckedIDs, part.AckedIDs)
	}

	// Against the global-LP soak the allocation may differ (that is the
	// point of the gap bound) but every discrete decision must match:
	// leadership, admissions, withdrawals, rejections.
	global := runOnce("global", 0)
	if global.LeaderAgreed != part.LeaderAgreed {
		t.Errorf("leader agreement differs: partitioned %v, global %v", part.LeaderAgreed, global.LeaderAgreed)
	}
	if !reflect.DeepEqual(global.AckedIDs, part.AckedIDs) {
		t.Errorf("partitioned acked %v != global %v", part.AckedIDs, global.AckedIDs)
	}
	if !reflect.DeepEqual(global.FinalIDs, part.FinalIDs) {
		t.Errorf("partitioned book %v != global %v", part.FinalIDs, global.FinalIDs)
	}
	if global.Rejected != part.Rejected {
		t.Errorf("partitioned rejected %d != global %d", part.Rejected, global.Rejected)
	}
}

// TestChaosSoakMidSolve runs the soak with the solver budget's
// mid-solve front armed: the pivot watcher dooms every third schedule
// from inside the simplex pivot loop (through the controller's
// SolverWatch hook), which must degrade exactly like a door-gate
// denial — the current allocation survives, the abort is counted, and
// the same seed still replays byte-identically.
func TestChaosSoakMidSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	const deadline = 750 * time.Millisecond
	logf := func(string, ...interface{}) {}
	if os.Getenv("CHAOS_VERBOSE") != "" {
		logf = t.Logf
	}
	seed := chaosSeeds(t)[0]
	runOnce := func(tag string, pivots int) *Report {
		rep, err := Run(Config{
			Seed: seed, Dir: t.TempDir(),
			RecoveryDeadline: deadline,
			MidSolvePivots:   pivots,
			Logf:             logf,
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return rep
	}
	mid := runOnce("mid-solve", 3)
	if !mid.LeaderAgreed {
		t.Fatal("mid-solve soak: replicas did not agree on a leader")
	}
	if mid.Digest == "" {
		t.Fatal("mid-solve soak: no end-state digest")
	}
	// Aborting a solve mid-pivot must not bend the book invariant.
	if want := surviving(mid.AckedIDs, mid.WithdrawnIDs); !reflect.DeepEqual(mid.FinalIDs, want) {
		t.Errorf("mid-solve final book %v, want acked-minus-withdrawn %v", mid.FinalIDs, want)
	}

	// Same seed, same cadence, fresh directory: byte-identical, down
	// to the injected abort count.
	replay := runOnce("mid-solve-replay", 3)
	if replay.Digest != mid.Digest {
		t.Errorf("mid-solve replay digest %s != original %s", replay.Digest, mid.Digest)
	}
	if replay.SolverDenials != mid.SolverDenials {
		t.Errorf("mid-solve replay denials %d != original %d", replay.SolverDenials, mid.SolverDenials)
	}

	// Against the unarmed soak: exactly one extra denial (the doomed
	// phase-7b solve), and every discrete decision unchanged — a
	// mid-pivot abort costs allocation freshness, never book state.
	plain := runOnce("plain", 0)
	if mid.SolverDenials != plain.SolverDenials+1 {
		t.Errorf("mid-solve denials %d, want plain's %d + 1", mid.SolverDenials, plain.SolverDenials)
	}
	if !reflect.DeepEqual(plain.AckedIDs, mid.AckedIDs) {
		t.Errorf("mid-solve acked %v != plain %v", mid.AckedIDs, plain.AckedIDs)
	}
	if !reflect.DeepEqual(plain.FinalIDs, mid.FinalIDs) {
		t.Errorf("mid-solve book %v != plain %v", mid.FinalIDs, plain.FinalIDs)
	}
	if plain.Rejected != mid.Rejected {
		t.Errorf("mid-solve rejected %d != plain %d", mid.Rejected, plain.Rejected)
	}
}

// TestChaosSoakOverload runs the soak with the admission gate wired to
// the seeded admission budget: every third sheddable request is shed
// with an explicit retry-after. Shedding must stay deterministic (same
// seed replays byte-identical through the retries), must never touch
// critical traffic, and must never lose or double-admit a demand — the
// final book is still exactly acked-minus-withdrawn.
func TestChaosSoakOverload(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	const deadline = 750 * time.Millisecond
	logf := func(string, ...interface{}) {}
	if os.Getenv("CHAOS_VERBOSE") != "" {
		logf = t.Logf
	}
	seed := chaosSeeds(t)[0]
	runOnce := func(tag string, overload bool) *Report {
		rep, err := Run(Config{
			Seed: seed, Dir: t.TempDir(),
			RecoveryDeadline: deadline,
			Overload:         overload,
			Logf:             logf,
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return rep
	}
	ov := runOnce("overload", true)
	if !ov.LeaderAgreed {
		t.Fatal("overload soak: replicas did not agree on a leader")
	}
	if ov.Digest == "" {
		t.Fatal("overload soak: no end-state digest")
	}
	// The budget must actually have fired, every shed must be explicit
	// (the gate counter equals the injected denials: nothing shed for
	// any other reason in this ample-slot config), and the clients must
	// have seen at least one retry-after — but possibly fewer than the
	// gate sent, since sheds on the lossy connection can be lost.
	if ov.AdmissionDenials < 1 {
		t.Errorf("admission budget never fired (denials = %d)", ov.AdmissionDenials)
	}
	if ov.GateSheds != ov.AdmissionDenials {
		t.Errorf("gate sheds %d != injected denials %d — a shed came from queue state, which cannot replay", ov.GateSheds, ov.AdmissionDenials)
	}
	if ov.ClientSheds < 1 || ov.ClientSheds > ov.GateSheds {
		t.Errorf("clients saw %d sheds, want between 1 and the gate's %d", ov.ClientSheds, ov.GateSheds)
	}
	// Shedding with retries must not bend the book invariant.
	if want := surviving(ov.AckedIDs, ov.WithdrawnIDs); !reflect.DeepEqual(ov.FinalIDs, want) {
		t.Errorf("overload final book %v, want acked-minus-withdrawn %v", ov.FinalIDs, want)
	}

	// Same seed, fresh directory: the retries replay byte-identical,
	// down to the injected shed count.
	replay := runOnce("overload-replay", true)
	if replay.Digest != ov.Digest {
		t.Errorf("overload replay digest %s != original %s", replay.Digest, ov.Digest)
	}
	if !reflect.DeepEqual(replay.AckedIDs, ov.AckedIDs) {
		t.Errorf("overload replay acked %v != original %v", replay.AckedIDs, ov.AckedIDs)
	}
	if !reflect.DeepEqual(replay.FinalIDs, ov.FinalIDs) {
		t.Errorf("overload replay book %v != original %v", replay.FinalIDs, ov.FinalIDs)
	}
	if replay.AdmissionDenials != ov.AdmissionDenials {
		t.Errorf("overload replay denials %d != original %d", replay.AdmissionDenials, ov.AdmissionDenials)
	}

	// Against the gate-less soak every discrete decision must match:
	// shedding delays requests, it never changes their outcome.
	plain := runOnce("plain", false)
	if !reflect.DeepEqual(plain.AckedIDs, ov.AckedIDs) {
		t.Errorf("overload acked %v != plain %v", ov.AckedIDs, plain.AckedIDs)
	}
	if !reflect.DeepEqual(plain.FinalIDs, ov.FinalIDs) {
		t.Errorf("overload book %v != plain %v", ov.FinalIDs, plain.FinalIDs)
	}
	if plain.Rejected != ov.Rejected {
		t.Errorf("overload rejected %d != plain %d", ov.Rejected, plain.Rejected)
	}
}

// TestChaosSoakMaintenance runs the soak with the proactive-drain end
// phase armed: a planned link is drained (traffic rescheduled off it
// while it is still up), verified, and undrained, both reschedules
// running against the seeded solver budget. The drain must stay
// deterministic (same seed replays byte-identical) and, because it
// runs after every shared phase, must not change a single discrete
// decision relative to the plain soak.
func TestChaosSoakMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	const deadline = 750 * time.Millisecond
	logf := func(string, ...interface{}) {}
	if os.Getenv("CHAOS_VERBOSE") != "" {
		logf = t.Logf
	}
	seed := chaosSeeds(t)[0]
	runOnce := func(tag string, maintenance bool) *Report {
		rep, err := Run(Config{
			Seed: seed, Dir: t.TempDir(),
			RecoveryDeadline: deadline,
			Maintenance:      maintenance,
			Logf:             logf,
		})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		return rep
	}
	mnt := runOnce("maintenance", true)
	if !mnt.LeaderAgreed {
		t.Fatal("maintenance soak: replicas did not agree on a leader")
	}
	if mnt.Digest == "" {
		t.Fatal("maintenance soak: no end-state digest")
	}
	if mnt.Drains != 1 || mnt.Undrains != 1 {
		t.Errorf("drains/undrains = %d/%d, want 1/1", mnt.Drains, mnt.Undrains)
	}
	// Draining must not bend the book invariant.
	if want := surviving(mnt.AckedIDs, mnt.WithdrawnIDs); !reflect.DeepEqual(mnt.FinalIDs, want) {
		t.Errorf("maintenance final book %v, want acked-minus-withdrawn %v", mnt.FinalIDs, want)
	}

	// Same seed, fresh directory: byte-identical through the drain.
	replay := runOnce("maintenance-replay", true)
	if replay.Digest != mnt.Digest {
		t.Errorf("maintenance replay digest %s != original %s", replay.Digest, mnt.Digest)
	}
	if replay.Drains != mnt.Drains || replay.Undrains != mnt.Undrains {
		t.Errorf("maintenance replay drains/undrains %d/%d != original %d/%d",
			replay.Drains, replay.Undrains, mnt.Drains, mnt.Undrains)
	}
	if !reflect.DeepEqual(replay.FinalIDs, mnt.FinalIDs) {
		t.Errorf("maintenance replay book %v != original %v", replay.FinalIDs, mnt.FinalIDs)
	}

	// Against the plain soak every discrete decision must match: the
	// drain phase runs after all of them.
	plain := runOnce("plain", false)
	if plain.Drains != 0 || plain.Undrains != 0 {
		t.Errorf("plain soak drained links: %d/%d", plain.Drains, plain.Undrains)
	}
	if !reflect.DeepEqual(plain.AckedIDs, mnt.AckedIDs) {
		t.Errorf("maintenance acked %v != plain %v", mnt.AckedIDs, plain.AckedIDs)
	}
	if !reflect.DeepEqual(plain.FinalIDs, mnt.FinalIDs) {
		t.Errorf("maintenance book %v != plain %v", mnt.FinalIDs, plain.FinalIDs)
	}
	if plain.Rejected != mnt.Rejected {
		t.Errorf("maintenance rejected %d != plain %d", mnt.Rejected, plain.Rejected)
	}
}

// surviving returns acked minus withdrawn, sorted (both inputs are).
func surviving(acked, withdrawn []int) []int {
	gone := make(map[int]bool, len(withdrawn))
	for _, id := range withdrawn {
		gone[id] = true
	}
	out := []int{}
	for _, id := range acked {
		if !gone[id] {
			out = append(out, id)
		}
	}
	return out
}
