package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"testing"

	"bate/internal/routing"
	"bate/internal/topo"
)

// hostileSeed lets CI rotate the soak seed (HOSTILE_SEED env); local
// runs default to 1 so failures reproduce.
func hostileSeed(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("HOSTILE_SEED")
	if s == "" {
		return 1
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		t.Fatalf("bad HOSTILE_SEED %q: %v", s, err)
	}
	return v
}

// scenarioDigest hashes the fully-assembled scenario (workload +
// failure schedule), the byte-identical-replay witness.
func scenarioDigest(t *testing.T, h *HostileScenario) string {
	t.Helper()
	blob, err := json.Marshal(struct {
		Workload interface{}
		Schedule *Schedule
	}{h.Workload, h.Schedule})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// TestMaintenanceNoShedViolations: the lazy backup cache is dropped on
// every admit, so a link that fails again after an admit is never
// served a plan computed without the new demand. On the maintenance
// preset (seed 1) such stale plans were the only cause of shed seconds
// and violated 4 demands.
func TestMaintenanceNoShedViolations(t *testing.T) {
	n := topo.Testbed()
	sc, err := BuildHostileScenario("maintenance", n, 600, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTimeSim(sc.SimConfig(routing.Compute(n, routing.KShortest, 4)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.SLOReports {
		if r.Violated && r.Cause == CauseShed {
			t.Errorf("demand %d violated by shed seconds (%d unsatisfied)", r.ID, r.UnsatShed)
		}
	}
}

// The hostile-soak gate: for each scenario family, the same seed must
// replay byte-identically, and the online SLO auditor must agree
// exactly with the offline recomputation — zero unnoticed (and zero
// phantom) violations.
func TestHostileSoak(t *testing.T) {
	seed := hostileSeed(t)
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	const horizon = 600.0

	for _, family := range ScenarioFamilies() {
		family := family
		t.Run(family, func(t *testing.T) {
			sc, err := BuildHostileScenario(family, n, horizon, seed)
			if err != nil {
				t.Fatal(err)
			}
			if len(sc.Workload) == 0 {
				t.Fatal("empty workload")
			}
			switch family {
			case "storm", "regional":
				if len(sc.Schedule.Groups) == 0 || len(sc.Schedule.Storms) == 0 {
					t.Fatalf("no correlated failures: %+v", sc.Schedule)
				}
			case "maintenance":
				if len(sc.Schedule.Maintenance) != 2 {
					t.Fatalf("maintenance plan %+v", sc.Schedule.Maintenance)
				}
			case "hostile":
				if len(sc.Schedule.Storms) == 0 || len(sc.Schedule.Maintenance) == 0 {
					t.Fatalf("hostile schedule missing layers: %+v", sc.Schedule)
				}
			}

			// Same seed → byte-identical scenario.
			sc2, err := BuildHostileScenario(family, n, horizon, seed)
			if err != nil {
				t.Fatal(err)
			}
			d1, d2 := scenarioDigest(t, sc), scenarioDigest(t, sc2)
			if d1 != d2 {
				t.Fatalf("scenario replay diverged: %s vs %s", d1, d2)
			}

			res, err := RunTimeSim(sc.SimConfig(ts))
			if err != nil {
				t.Fatal(err)
			}
			if res.Admitted == 0 {
				t.Fatal("nothing admitted — scenario exercises nothing")
			}
			if len(res.SLOReports) != res.Admitted {
				t.Fatalf("%d SLO reports for %d admitted demands", len(res.SLOReports), res.Admitted)
			}

			// Same seed → identical simulation results.
			res2, err := RunTimeSim(sc2.SimConfig(ts))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Outcomes, res2.Outcomes) {
				t.Fatal("outcomes diverged on same-seed replay")
			}
			if !reflect.DeepEqual(res.SLOReports, res2.SLOReports) {
				t.Fatal("SLO reports diverged on same-seed replay")
			}

			// Zero unnoticed violations: the offline recomputation from
			// the raw per-second log must match the online auditor.
			offline := RecomputeSLO(sc.Workload, res.SLOLog, 0.01)
			if err := CompareSLOReports(res.SLOReports, offline); err != nil {
				t.Fatalf("online/offline SLO mismatch: %v", err)
			}
		})
	}
}
