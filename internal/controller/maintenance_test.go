package controller

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"bate/internal/routing"
	"bate/internal/topo"
)

// Draining a link must move all allocated traffic off it while the
// link is still up, and undraining must return it to service.
func TestDrainLinkReroutes(t *testing.T) {
	ctrl, _, client := startSystem(t)

	// DC1-DC4 is the direct L4 link; DC1-DC2-DC3-DC4 and
	// DC1-DC6-DC5-DC4 remain as detours with ample capacity.
	res := submit(t, client, "DC1", "DC4", 300, 0.99)
	if !res.Admitted {
		t.Fatalf("admission refused: %+v", res)
	}

	if err := ctrl.DrainLink("DC1", "DC9"); err == nil {
		t.Fatal("unknown DC accepted")
	}
	if err := ctrl.DrainLink("DC2", "DC4"); err == nil {
		t.Fatal("nonexistent link accepted")
	}

	if err := ctrl.DrainLink("DC1", "DC4"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.DrainLink("DC1", "DC4"); err != nil {
		t.Fatalf("drain not idempotent: %v", err)
	}
	n := ctrl.cfg.Net
	src, _ := n.NodeByName("DC1")
	dst, _ := n.NodeByName("DC4")
	link, _ := n.LinkBetween(src, dst)
	if got := ctrl.DrainedLinks(); len(got) != 1 || got[0] != link.ID {
		t.Fatalf("drained set %v, want [%d]", got, link.ID)
	}

	// The synchronous reschedule has already landed: the demand keeps
	// its bandwidth, but no tunnel crossing the drained link carries
	// any of it.
	ctrl.mu.Lock()
	in, active := ctrl.inputLocked()
	total := 0.0
	for _, d := range active {
		rows := ctrl.current[d.ID]
		for pi := range d.Pairs {
			tunnels := in.TunnelsFor(d, pi)
			for ti, rate := range rows[pi] {
				total += rate
				if rate > 0 && tunnels[ti].Uses(link.ID) {
					ctrl.mu.Unlock()
					t.Fatalf("drained link still carries %.1f Mbps on tunnel %d", rate, ti)
				}
			}
		}
	}
	ctrl.mu.Unlock()
	if total < 300*0.999 {
		t.Fatalf("demand lost bandwidth under drain: %.1f Mbps", total)
	}

	if err := ctrl.UndrainLink("DC1", "DC4"); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.UndrainLink("DC1", "DC4"); err != nil {
		t.Fatalf("undrain not idempotent: %v", err)
	}
	if got := ctrl.DrainedLinks(); len(got) != 0 {
		t.Fatalf("drained set %v after undrain", got)
	}
}

// A configured maintenance window must drain by wall clock (Lead
// before Start) and undrain at End without any operator call.
func TestMaintenanceWindowLoop(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	now := time.Now()
	ctrl, err := New(Config{
		Net: n, Tunnels: ts, MaxFail: 2, Logf: silent,
		Maintenance: []MaintenanceWindow{{
			SrcDC: "DC1", DstDC: "DC4",
			Start: now.Add(100 * time.Millisecond),
			End:   now.Add(400 * time.Millisecond),
			Lead:  80 * time.Millisecond,
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go ctrl.Serve(ctx, ln)

	waitFor(t, "maintenance drain", func() bool { return len(ctrl.DrainedLinks()) == 1 })
	waitFor(t, "maintenance undrain", func() bool { return len(ctrl.DrainedLinks()) == 0 })
}

// A round whose hardening fails still pushes the relaxed allocation, as
// before, but no longer silently: it counts controller.harden_failures
// and says so on the round's log line. Draining DC1-DC6 under this book
// leaves the relaxation feasible and the greedy hard guarantee not.
func TestHardenFailureCounted(t *testing.T) {
	n := topo.Testbed()
	var mu sync.Mutex
	var lines []string
	ctrl, err := New(Config{
		Net: n, Tunnels: routing.Compute(n, routing.KShortest, 4), MaxFail: 2,
		Logf: func(format string, args ...interface{}) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runSequence(ctrl, []step{{"DC1", "DC5", 961, 0.99}, {"DC1", "DC6", 535, 0.999}}) {
		if !r.Admitted {
			t.Fatalf("admission refused: %+v", r)
		}
	}
	before := mHardenFailures.Load()
	if err := ctrl.DrainLink("DC1", "DC6"); err != nil {
		t.Fatal(err)
	}
	if got := mHardenFailures.Load() - before; got != 1 {
		t.Fatalf("controller.harden_failures moved by %d, want 1", got)
	}
	mu.Lock()
	defer mu.Unlock()
	for _, l := range lines {
		if strings.HasPrefix(l, "controller: scheduled ") && strings.Contains(l, "; harden failed: ") && strings.Contains(l, ", relaxed allocation pushed") {
			return
		}
	}
	t.Fatalf("no round line reports the failed hardening:\n%s", strings.Join(lines, "\n"))
}
