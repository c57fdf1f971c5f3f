package controller

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"bate/internal/alloc"
	"bate/internal/metrics"
	"bate/internal/routing"
	"bate/internal/store"
	"bate/internal/topo"
	"bate/internal/wire"
)

// captureConn is a net.Conn that records every byte written to it and
// reads EOF, so a broker session over it ends after its first send.
type captureConn struct{ buf bytes.Buffer }

func (c *captureConn) Read([]byte) (int, error)         { return 0, io.EOF }
func (c *captureConn) Write(p []byte) (int, error)      { return c.buf.Write(p) }
func (c *captureConn) Close() error                     { return nil }
func (c *captureConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c *captureConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c *captureConn) SetDeadline(time.Time) error      { return nil }
func (c *captureConn) SetReadDeadline(time.Time) error  { return nil }
func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }

// encoded returns the frame bytes of m as a conn sends them.
func encoded(t *testing.T, m *wire.Message) []byte {
	t.Helper()
	cc := &captureConn{}
	if err := wire.New(cc).Send(m); err != nil {
		t.Fatal(err)
	}
	return cc.buf.Bytes()
}

// refAllocMessage is the per-broker builder the one-pass fan-out
// replaced, kept as its reference: one walk over the book per broker,
// with every tunnel's hop names rebuilt on the way.
func refAllocMessage(c *Controller, dc string, a alloc.Allocation, backup bool) *wire.Message {
	in, _ := c.inputLocked()
	update := &wire.AllocUpdate{Epoch: c.st.Epoch, Backup: backup}
	for _, d := range in.Demands {
		rows, ok := a[d.ID]
		if !ok {
			continue
		}
		for pi := range d.Pairs {
			if pi >= len(rows) {
				continue
			}
			tunnels := in.TunnelsFor(d, pi)
			for ti, rate := range rows[pi] {
				if rate <= 0 {
					continue
				}
				label, err := wire.Label(d.ID, ti)
				if err != nil {
					continue
				}
				nodes := tunnels[ti].Nodes(c.cfg.Net)
				hops := make([]string, len(nodes))
				for i, v := range nodes {
					hops[i] = c.cfg.Net.NodeName(v)
				}
				forwards := false
				for _, h := range hops[:len(hops)-1] {
					forwards = forwards || h == dc
				}
				if !forwards {
					continue
				}
				update.Tunnels = append(update.Tunnels, wire.TunnelAlloc{Label: label, Hops: hops, Rate: rate})
			}
		}
	}
	return &wire.Message{Type: wire.TypeAllocUpdate, Alloc: update}
}

// TestPushMatchesPerBrokerReference: on a B4 and a Synth100 book, every
// broker receives the same bytes from the one-pass fan-out as from the
// per-broker reference, for a scheduled push, a backup push after a
// link failure and a late joiner's first message.
func TestPushMatchesPerBrokerReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *topo.Network
		k    int
		book int
	}{
		{"B4", topo.B4(), 4, 60},
		{"Synth100", topo.Synth100(), 3, 80},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.net
			rng := rand.New(rand.NewSource(7))
			var pairs [][2]topo.NodeID
			for len(pairs) < 40 {
				s, d := topo.NodeID(rng.Intn(n.NumNodes())), topo.NodeID(rng.Intn(n.NumNodes()))
				if s != d {
					pairs = append(pairs, [2]topo.NodeID{s, d})
				}
			}
			ts := routing.ComputeForPairs(n, routing.KShortest, tc.k, pairs)
			ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
			if err != nil {
				t.Fatal(err)
			}
			caps := make(map[string]*captureConn)
			ctrl.mu.Lock()
			for i := 0; i < n.NumNodes(); i++ {
				dc := n.NodeName(topo.NodeID(i))
				caps[dc] = &captureConn{}
				ctrl.brokers[dc] = wire.New(caps[dc])
			}
			ctrl.mu.Unlock()
			admitted := 0
			for i := 0; i < tc.book; i++ {
				p := pairs[rng.Intn(len(pairs))]
				if r := ctrl.submit(&wire.Submit{
					Src: n.NodeName(p[0]), Dst: n.NodeName(p[1]), Bandwidth: 20 + 80*rng.Float64(),
					Target: []float64{0.9, 0.95, 0.99}[rng.Intn(3)], Charge: 50, RefundFrac: 0.1,
				}); r.Admitted {
					admitted++
				}
			}
			if admitted < tc.book/2 {
				t.Fatalf("only %d of %d admitted; the book is too thin to compare", admitted, tc.book)
			}
			check := func(what string, a alloc.Allocation, backup bool) {
				t.Helper()
				ctrl.mu.Lock()
				defer ctrl.mu.Unlock()
				carried := 0
				for dc, cc := range caps {
					ref := refAllocMessage(ctrl, dc, a, backup)
					carried += len(ref.Alloc.Tunnels)
					if want := encoded(t, ref); !bytes.Equal(cc.buf.Bytes(), want) {
						t.Fatalf("%s: %s received %d bytes, the per-broker reference %d", what, dc, cc.buf.Len(), len(want))
					}
					cc.buf.Reset()
				}
				if carried == 0 {
					t.Fatalf("%s: no broker carries a tunnel", what)
				}
			}
			for _, cc := range caps {
				cc.buf.Reset()
			}

			if err := ctrl.Reschedule(); err != nil {
				t.Fatal(err)
			}
			check("scheduled push", ctrl.st.Current, false)

			// Fail the link carrying the most allocated tunnels.
			use := make(map[topo.LinkID]int)
			ctrl.mu.Lock()
			in, _ := ctrl.inputLocked()
			for _, d := range in.Demands {
				for ti, rate := range ctrl.st.Current[d.ID][0] {
					if rate > 0 {
						for _, l := range in.TunnelsFor(d, 0)[ti].Links {
							use[l]++
						}
					}
				}
			}
			ctrl.mu.Unlock()
			busiest := topo.LinkID(0)
			for l, k := range use {
				if k > use[busiest] || (k == use[busiest] && l < busiest) {
					busiest = l
				}
			}
			link := n.Link(busiest)
			ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: n.NodeName(link.Src), DstDC: n.NodeName(link.Dst)})
			ctrl.mu.Lock()
			in, _ = ctrl.inputLocked()
			rec, hit := ctrl.backups.For(in, []topo.LinkID{busiest})
			ctrl.mu.Unlock()
			if !hit {
				t.Fatal("no precomputed backup for a single-link failure right after a round")
			}
			check("backup push", rec.Alloc, true)

			for _, dc := range []string{n.NodeName(link.Src), n.NodeName(link.Dst), n.NodeName(0)} {
				cc := &captureConn{}
				ctrl.serveBroker(wire.New(cc), dc)
				ctrl.mu.Lock()
				want := encoded(t, refAllocMessage(ctrl, dc, ctrl.st.Current, false))
				ctrl.mu.Unlock()
				if !bytes.Equal(cc.buf.Bytes(), want) {
					t.Fatalf("late joiner %s received %d bytes, the per-broker reference %d", dc, cc.buf.Len(), len(want))
				}
			}
		})
	}
}

// TestOneFsyncPerAck: a submit, a batch, a round, a link failure, a
// link repair and a withdraw each write one WAL group, so each costs
// one fsync: the transition and its push's epoch share it.
func TestOneFsyncPerAck(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	st, err := store.Open(t.TempDir(), n, store.Options{Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	fsyncs := func(what string, op func()) {
		t.Helper()
		before := metrics.Snapshot()["store.fsyncs"]
		records := st.WALRecords()
		op()
		if got := metrics.Snapshot()["store.fsyncs"] - before; got != 1 {
			t.Fatalf("%s: %d fsyncs, want 1", what, got)
		}
		if st.WALRecords() <= records+1 {
			t.Fatalf("%s: %d WAL records, want the transition and its epoch", what, st.WALRecords()-records)
		}
	}
	var id int
	fsyncs("submit", func() {
		r := ctrl.submit(&wire.Submit{Src: "DC1", Dst: "DC3", Bandwidth: 200, Target: 0.99, Charge: 200, RefundFrac: 0.1})
		if !r.Admitted {
			t.Fatalf("submit not admitted: %+v", r)
		}
		id = r.DemandID
	})
	fsyncs("batch", func() {
		rs := ctrl.submitBatch([]wire.Submit{
			{Src: "DC2", Dst: "DC5", Bandwidth: 100, Target: 0.95, Charge: 100, RefundFrac: 0.1},
			{Src: "DC4", Dst: "DC6", Bandwidth: 80, Target: 0.9, Charge: 80, RefundFrac: 0.1},
		})
		if !rs[0].Admitted || !rs[1].Admitted {
			t.Fatalf("batch not admitted: %+v", rs)
		}
	})
	fsyncs("round", func() {
		if err := ctrl.Reschedule(); err != nil {
			t.Fatal(err)
		}
	})
	fsyncs("link down", func() { ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: "DC1", DstDC: "DC2"}) })
	fsyncs("link up", func() { ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: "DC1", DstDC: "DC2", Up: true}) })
	fsyncs("withdraw", func() {
		if err := ctrl.withdraw(id); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStatusMemoMatchesFresh: after an admit, a withdraw, a round, a
// drain, a link failure and a reallocation, every demand's status
// availability equals one computed fresh, and the memo holds no demand
// off the book.
func TestStatusMemoMatchesFresh(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for _, s := range []wire.Submit{
		{Src: "DC1", Dst: "DC3", Bandwidth: 300, Target: 0.99},
		{Src: "DC2", Dst: "DC6", Bandwidth: 250, Target: 0.95},
		{Src: "DC1", Dst: "DC4", Bandwidth: 200, Target: 0.999},
		{Src: "DC5", Dst: "DC3", Bandwidth: 150, Target: 0.9},
	} {
		r := ctrl.submit(&s)
		if !r.Admitted {
			t.Fatalf("setup submit not admitted: %+v", r)
		}
		ids = append(ids, r.DemandID)
	}
	matches := func(what string) {
		t.Helper()
		for pass := 0; pass < 2; pass++ { // the second pass reads the memo
			reply := ctrl.status()
			ctrl.mu.Lock()
			in, active := ctrl.inputLocked()
			if len(reply.Demands) != len(active) {
				t.Fatalf("%s: status lists %d demands, the book holds %d", what, len(reply.Demands), len(active))
			}
			for i, d := range active {
				want := 0.0
				if _, ok := ctrl.st.Current[d.ID]; ok {
					if want, err = alloc.AchievedAvailability(in, ctrl.st.Current, d, 2); err != nil {
						t.Fatal(err)
					}
				}
				if got := reply.Demands[i]; got.DemandID != d.ID || got.Achieved != want {
					t.Fatalf("%s: demand %d achieved %v, fresh %v", what, d.ID, got.Achieved, want)
				}
			}
			ctrl.mu.Unlock()
			ctrl.availMu.Lock()
			memo := len(ctrl.avail)
			ctrl.availMu.Unlock()
			if memo > len(active) {
				t.Fatalf("%s: memo holds %d demands, the book %d", what, memo, len(active))
			}
		}
	}
	matches("admit")
	if err := ctrl.withdraw(ids[0]); err != nil {
		t.Fatal(err)
	}
	matches("withdraw")
	if err := ctrl.Reschedule(); err != nil {
		t.Fatal(err)
	}
	matches("round")
	if err := ctrl.DrainLink("DC1", "DC4"); err != nil {
		t.Fatal(err)
	}
	matches("drain")
	ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: "DC2", DstDC: "DC5"})
	matches("link failure")

	// A reallocation that moves one demand's availability: a memo
	// that outlived its rows would keep the old value.
	before := ctrl.status()
	ctrl.mu.Lock()
	a := ctrl.st.Current.Clone()
	d := ctrl.st.Demands[ids[1]]
	for ti := range a[d.ID][0] {
		a[d.ID][0][ti] *= 0.5
	}
	if err := ctrl.commit(store.Schedule{Alloc: a}); err != nil {
		t.Fatal(err)
	}
	ctrl.mu.Unlock()
	matches("reallocation")
	for i, ds := range ctrl.status().Demands {
		if ds.DemandID == d.ID && ds.Achieved == before.Demands[i].Achieved {
			t.Fatalf("halving demand %d's rows left its availability at %v; the step tests nothing", d.ID, ds.Achieved)
		}
	}
	r := ctrl.submit(&wire.Submit{Src: "DC3", Dst: "DC6", Bandwidth: 100, Target: 0.99})
	if !r.Admitted {
		t.Fatalf("submit after the failure not admitted: %+v", r)
	}
	matches("admit after failure")
}
