package controller

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"bate/internal/alloc"
	"bate/internal/bate"
	"bate/internal/demand"
	"bate/internal/routing"
	"bate/internal/store"
	"bate/internal/topo"
	"bate/internal/wire"
)

// pipeBroker attaches an in-memory session for dc and returns a func
// that waits for the push of the controller's current epoch and
// returns it.
func pipeBroker(t *testing.T, c *Controller, dc string) func() *wire.AllocUpdate {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	var mu sync.Mutex
	var last *wire.AllocUpdate
	go func() {
		rc := wire.New(b)
		for {
			m, err := rc.Recv()
			if err != nil {
				return
			}
			mu.Lock()
			last = m.Alloc
			mu.Unlock()
		}
	}()
	c.mu.Lock()
	c.brokers[dc] = wire.New(a)
	c.mu.Unlock()
	return func() *wire.AllocUpdate {
		t.Helper()
		var u *wire.AllocUpdate
		waitFor(t, "push of the current epoch", func() bool {
			_, epoch := c.Snapshot()
			mu.Lock()
			defer mu.Unlock()
			u = last
			return u != nil && u.Epoch == epoch
		})
		return u
	}
}

// pushedRows rebuilds a single-pair demand's rows from a push that
// carries all of its tunnels (the push to its source DC).
func pushedRows(t *testing.T, in *alloc.Input, u *wire.AllocUpdate, d *demand.Demand) [][]float64 {
	t.Helper()
	rows := [][]float64{make([]float64, len(in.TunnelsFor(d, 0)))}
	for ti := range rows[0] {
		label, err := wire.Label(d.ID, ti)
		if err != nil {
			t.Fatal(err)
		}
		for _, ta := range u.Tunnels {
			if ta.Label == label {
				rows[0][ti] = ta.Rate
			}
		}
	}
	return rows
}

// A conjecture admit (Alg. 1) carries a temporary allocation that may
// be below b_d (§3.2 footnote 5). The submit runs a round before it
// returns, so the brokers' last push already gives the demand its
// bandwidth and its availability target.
func TestConjectureAdmitTriggersRound(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	base := runSequence(ctrl, []step{{"DC1", "DC3", 600, 0.95}})[0]
	if !base.Admitted {
		t.Fatalf("setup admission refused: %+v", base)
	}
	// Spread the first demand wastefully over every tunnel, loading
	// all DC1 links, so the next one fails the fixed check but passes
	// the conjecture.
	ctrl.mu.Lock()
	in, _ := ctrl.inputLocked()
	wasteful := alloc.New(in)
	for ti := range wasteful[base.DemandID][0] {
		wasteful[base.DemandID][0][ti] = 900
	}
	if err := ctrl.commit(store.Schedule{Alloc: wasteful}); err != nil {
		t.Fatal(err)
	}
	ctrl.mu.Unlock()
	last := pipeBroker(t, ctrl, "DC1")

	res := runSequence(ctrl, []step{{"DC1", "DC4", 700, 0.95}})[0]
	if !res.Admitted || res.Method != string(bate.MethodConjecture) {
		t.Fatalf("DC1-DC4 admission: %+v, want a conjecture admit", res)
	}
	u := last()
	ctrl.mu.Lock()
	in, _ = ctrl.inputLocked()
	d := ctrl.st.Demands[res.DemandID]
	ctrl.mu.Unlock()
	rows := pushedRows(t, in, u, d)
	total := 0.0
	for _, r := range rows[0] {
		total += r
	}
	if total < 700-1e-6 {
		t.Fatalf("last push gives the conjecture admit %.1f of 700 Mbps", total)
	}
	ok, err := alloc.Satisfies(in, alloc.Allocation{d.ID: rows}, d, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("last push misses the demand's 0.95 target: rows %v", rows)
	}
}

// A drain whose round the solver gate denies leaves the last round's
// backups in place, planned without the drain. A failure must not be
// served from them: every recovery push keeps the drained link empty.
func TestGatedDrainRefusesStaleBackups(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	var deny atomic.Bool
	gate := func(op string) error {
		if op == "schedule" && deny.Load() {
			return errors.New("denied")
		}
		return nil
	}
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent, SolverGate: gate})
	if err != nil {
		t.Fatal(err)
	}
	res := runSequence(ctrl, []step{{"DC1", "DC4", 300, 0.99}})[0]
	if !res.Admitted {
		t.Fatalf("setup admission refused: %+v", res)
	}
	if err := ctrl.Reschedule(); err != nil {
		t.Fatal(err)
	}
	deny.Store(true)
	if err := ctrl.DrainLink("DC1", "DC4"); err != nil {
		t.Fatal(err)
	}
	drained := ctrl.DrainedLinks()
	if len(drained) != 1 {
		t.Fatalf("drained set %v", drained)
	}
	last := pipeBroker(t, ctrl, "DC1")
	ctrl.mu.Lock()
	in, _ := ctrl.inputLocked()
	d := ctrl.st.Demands[res.DemandID]
	ctrl.mu.Unlock()
	tunnels := in.TunnelsFor(d, 0)

	for _, l := range n.Links() {
		if l.ID == drained[0] {
			continue
		}
		s, dst := n.NodeName(l.Src), n.NodeName(l.Dst)
		ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: s, DstDC: dst, Up: false})
		for ti, rate := range pushedRows(t, in, last(), d)[0] {
			if rate > 0 && tunnels[ti].Uses(drained[0]) {
				t.Errorf("%s-%s down: recovery puts %.1f Mbps on the drained link", s, dst, rate)
			}
		}
		ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: s, DstDC: dst, Up: true})
	}
}
