package controller

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"bate/internal/bate"
	"bate/internal/routing"
	"bate/internal/topo"
	"bate/internal/wire"
)

// A round plans the optimal rung's root next to the backups. A double
// failure, which the depth-1 backups do not cover, is then served by
// the optimal stage started from that root, and what the brokers are
// pushed is worth what a cold RecoverOptimal finds.
func TestDoubleFailureRecoversFromPlannedRoot(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...interface{}) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range runSequence(ctrl, []step{
		{"DC1", "DC4", 700, 0.9},
		{"DC1", "DC3", 500, 0.9},
		{"DC2", "DC6", 400, 0.9},
		{"DC5", "DC3", 300, 0.9},
		{"DC6", "DC4", 300, 0.9},
	}) {
		if !r.Admitted {
			t.Fatalf("setup admission %d refused: %+v", i, r)
		}
	}
	if err := ctrl.Reschedule(); err != nil {
		t.Fatal(err)
	}
	pushes := make(map[string]func() *wire.AllocUpdate)
	for v := 0; v < n.NumNodes(); v++ {
		dc := n.NodeName(topo.NodeID(v))
		pushes[dc] = pipeBroker(t, ctrl, dc)
	}

	// DC1→DC2 and DC1→DC4: DC1's 1200 Mbps no longer fit its one
	// link left.
	first, second := n.Links()[0], n.Links()[6]
	mu.Lock()
	lines = nil
	mu.Unlock()
	for _, l := range []topo.Link{first, second} {
		ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: n.NodeName(l.Src), DstDC: n.NodeName(l.Dst), Up: false})
	}
	mu.Lock()
	log := strings.Join(lines, "\n")
	mu.Unlock()
	if !strings.Contains(log, "recovered 2-link failure via optimal stage") || !strings.Contains(log, "pivots from a warm root") {
		t.Fatalf("double failure not served by the optimal stage from the planned root:\n%s", log)
	}

	ctrl.mu.Lock()
	in, _ := ctrl.inputLocked()
	ctrl.mu.Unlock()
	want, err := bate.RecoverOptimal(in, []topo.LinkID{first.ID, second.ID})
	if err != nil {
		t.Fatal(err)
	}
	// Each demand's rows, from the push to its source DC.
	profit := 0.0
	for _, d := range in.Demands {
		u := pushes[n.NodeName(d.Pairs[0].Src)]()
		if !u.Backup {
			t.Fatalf("demand %d's source DC holds a non-backup push after the failure", d.ID)
		}
		got := 0.0
		for _, r := range pushedRows(t, in, u, d)[0] {
			got += r
		}
		if got >= d.Pairs[0].Bandwidth-1e-6 {
			profit += d.Charge
		} else {
			profit += (1 - d.RefundFrac) * d.Charge
		}
	}
	full := 0.0
	for _, d := range in.Demands {
		full += d.Charge
	}
	if want.Profit >= full {
		t.Fatalf("the failure drops no demand (profit %.1f of %.1f): the case proves little", want.Profit, full)
	}
	if math.Abs(profit-want.Profit) > 1e-6*want.Profit {
		t.Fatalf("pushed allocation is worth %.3f, RecoverOptimal %.3f", profit, want.Profit)
	}
}

// The optimal stage's log line names the model it solved: the round's
// on the book the round planned, a rebuilt one after an admit.
func TestRecoveryLogNamesTheModel(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	for _, c := range []struct {
		admit bool
		want  string
	}{
		{false, "on the round's model"},
		{true, "on a rebuilt model (book changed since the round)"},
	} {
		var mu sync.Mutex
		var lines []string
		ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: func(format string, args ...interface{}) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
		if err != nil {
			t.Fatal(err)
		}
		runSequence(ctrl, []step{{"DC1", "DC4", 700, 0.9}, {"DC1", "DC3", 500, 0.9}, {"DC2", "DC6", 400, 0.9}})
		if err := ctrl.Reschedule(); err != nil {
			t.Fatal(err)
		}
		if c.admit {
			if r := runSequence(ctrl, []step{{"DC5", "DC3", 100, 0.9}}); !r[0].Admitted {
				t.Fatalf("admit refused: %+v", r[0])
			}
		}
		for _, l := range []topo.Link{n.Links()[0], n.Links()[6]} {
			ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: n.NodeName(l.Src), DstDC: n.NodeName(l.Dst), Up: false})
		}
		mu.Lock()
		log := strings.Join(lines, "\n")
		mu.Unlock()
		if !strings.Contains(log, "via optimal stage") || !strings.Contains(log, c.want) {
			t.Fatalf("admit %v: no optimal-stage line %q:\n%s", c.admit, c.want, log)
		}
	}
}
