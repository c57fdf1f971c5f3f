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
	"bate/internal/wire"
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
	onLink, total := bookLoad(ctrl, link.ID)
	if onLink > 0 {
		t.Fatalf("drained link still carries %.1f Mbps", onLink)
	}
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

// bookLoad sums the installed allocation over the admitted book: the
// Mbps on tunnels that cross link, and the Mbps overall.
func bookLoad(c *Controller, link topo.LinkID) (onLink, total float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	in, active := c.inputLocked()
	for _, d := range active {
		rows := c.st.Current[d.ID]
		for pi := 0; pi < len(d.Pairs) && pi < len(rows); pi++ {
			tunnels := in.TunnelsFor(d, pi)
			for ti, rate := range rows[pi] {
				total += rate
				if rate > 0 && tunnels[ti].Uses(link) {
					onLink += rate
				}
			}
		}
	}
	return onLink, total
}

// Admission honours a drain as scheduling does: with DC1->DC4 drained,
// neither a single submit nor a batch frame may place a demand on a
// tunnel that crosses it. Admission rows are what brokers enforce until
// the next round. The demands are best-effort: with no availability
// target to steer them off the 1 %-failure direct link, that link is
// where the fixed check puts them unless it sees the drain.
func TestSubmitDuringDrainAvoidsDrainedLink(t *testing.T) {
	ctrl, _, client := startSystem(t)
	if err := ctrl.DrainLink("DC1", "DC4"); err != nil {
		t.Fatal(err)
	}
	drained := ctrl.DrainedLinks()
	if len(drained) != 1 {
		t.Fatalf("drained set %v", drained)
	}
	if r := submit(t, client, "DC1", "DC4", 100, 0); !r.Admitted {
		t.Fatalf("single submit refused: %+v", r)
	}
	batch := make([]wire.Submit, 3)
	for i := range batch {
		batch[i] = wire.Submit{Src: "DC1", Dst: "DC4", Bandwidth: 100, Charge: 100, RefundFrac: 0.1}
	}
	if err := client.Send(&wire.Message{Type: wire.TypeSubmitBatch, SubmitBatch: batch}); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reply.AdmitBatchResult {
		if !r.Admitted {
			t.Fatalf("batch entry %d refused: %+v", i, r)
		}
	}
	onLink, total := bookLoad(ctrl, drained[0])
	if onLink > 0 {
		t.Fatalf("admission placed %.1f of %.1f Mbps on the drained link", onLink, total)
	}
	if total < 400*0.999 {
		t.Fatalf("admitted book carries %.1f Mbps, want 400", total)
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
