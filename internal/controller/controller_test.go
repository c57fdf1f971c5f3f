package controller

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"bate/internal/bate"
	"bate/internal/broker"
	"bate/internal/metrics"
	"bate/internal/routing"
	"bate/internal/topo"
	"bate/internal/wire"
)

func silent(string, ...interface{}) {}

// lastAddr records the most recent startSystem listener address so
// tests can open additional client connections.
var lastAddr string

// startSystem launches a controller plus brokers for every DC over
// localhost TCP and returns a connected client conn.
func startSystem(t *testing.T) (*Controller, map[string]*broker.Broker, *wire.Conn) {
	t.Helper()
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
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
	lastAddr = ln.Addr().String()

	brokers := make(map[string]*broker.Broker)
	for i := 0; i < n.NumNodes(); i++ {
		dc := n.NodeName(topo.NodeID(i))
		b := broker.New(dc, ln.Addr().String())
		b.SetLogf(silent)
		brokers[dc] = b
		go b.Run(ctx)
	}

	client, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	if err := client.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "client"}}); err != nil {
		t.Fatal(err)
	}
	return ctrl, brokers, client
}

func submit(t *testing.T, client *wire.Conn, src, dst string, bw, target float64) *wire.AdmitResult {
	t.Helper()
	err := client.Send(&wire.Message{Type: wire.TypeSubmit, Submit: &wire.Submit{
		Src: src, Dst: dst, Bandwidth: bw, Target: target, Charge: bw, RefundFrac: 0.1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeAdmitResult || reply.AdmitResult == nil {
		t.Fatalf("reply %+v", reply)
	}
	return reply.AdmitResult
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

func TestEndToEndAdmissionAndPush(t *testing.T) {
	ctrl, brokers, client := startSystem(t)

	res := submit(t, client, "DC1", "DC3", 400, 0.99)
	if !res.Admitted {
		t.Fatalf("admission refused: %+v", res)
	}
	if res.DelayMs <= 0 {
		t.Fatal("no admission delay recorded")
	}
	nd, _ := ctrl.Snapshot()
	if nd != 1 {
		t.Fatalf("controller has %d demands", nd)
	}
	// DC1 (the source) must install at least one forwarding entry.
	waitFor(t, "DC1 forwarding entries", func() bool {
		return brokers["DC1"].NumEntries() > 0
	})
	// Every entry enforces a positive rate toward a real next hop.
	label, _ := wire.Label(res.DemandID, 0)
	_ = label
}

func TestEndToEndRejection(t *testing.T) {
	_, _, client := startSystem(t)
	res := submit(t, client, "DC1", "DC3", 99999, 0.99)
	if res.Admitted {
		t.Fatal("100 Gbps must be rejected on 1 Gbps links")
	}
	if res.Method != "rejected" {
		t.Fatalf("method = %q", res.Method)
	}
}

func TestEndToEndInvalidSubmissions(t *testing.T) {
	_, _, client := startSystem(t)
	cases := []*wire.Submit{
		{Src: "nope", Dst: "DC2", Bandwidth: 10},
		{Src: "DC1", Dst: "DC1", Bandwidth: 10},
		{Src: "DC1", Dst: "DC2", Bandwidth: -5},
	}
	for _, s := range cases {
		client.Send(&wire.Message{Type: wire.TypeSubmit, Submit: s})
		reply, err := client.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if reply.AdmitResult == nil || reply.AdmitResult.Admitted {
			t.Fatalf("invalid submit accepted: %+v", reply)
		}
	}
}

func TestWithdrawFreesCapacity(t *testing.T) {
	ctrl, _, client := startSystem(t)
	// Saturate DC1->DC3 capacity, withdraw, then admit again.
	r1 := submit(t, client, "DC1", "DC3", 900, 0.95)
	if !r1.Admitted {
		t.Fatal("first demand refused")
	}
	var ids []int
	ids = append(ids, r1.DemandID)
	for i := 0; i < 4; i++ {
		r := submit(t, client, "DC1", "DC3", 900, 0.95)
		if !r.Admitted {
			break
		}
		ids = append(ids, r.DemandID)
	}
	rFull := submit(t, client, "DC1", "DC3", 900, 0.95)
	if rFull.Admitted {
		t.Fatal("network should be saturated by now")
	}
	// Withdraw everything.
	for _, id := range ids {
		client.Send(&wire.Message{Type: wire.TypeWithdraw, WithdrawID: id})
		if _, err := client.Recv(); err != nil {
			t.Fatal(err)
		}
	}
	nd, _ := ctrl.Snapshot()
	if nd != 0 {
		t.Fatalf("still %d demands after withdraw", nd)
	}
	rAgain := submit(t, client, "DC1", "DC3", 900, 0.95)
	if !rAgain.Admitted {
		t.Fatal("capacity not freed after withdraw")
	}
}

func TestLinkFailureActivatesBackup(t *testing.T) {
	ctrl, brokers, client := startSystem(t)
	res := submit(t, client, "DC1", "DC4", 400, 0.99)
	if !res.Admitted {
		t.Fatal("admission refused")
	}
	// Run the periodic scheduler once to compute backups.
	if err := ctrl.Reschedule(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "entries before failure", func() bool {
		return brokers["DC1"].NumEntries() > 0
	})
	_, epochBefore := ctrl.Snapshot()
	// A broker reports the direct DC1-DC4 link down.
	if err := brokers["DC1"].ReportLink("DC1", "DC4", false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "backup push", func() bool {
		_, e := ctrl.Snapshot()
		return e > epochBefore
	})
	// Repair restores the scheduled allocation.
	_, epochMid := ctrl.Snapshot()
	if err := brokers["DC1"].ReportLink("DC1", "DC4", true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "restore push", func() bool {
		_, e := ctrl.Snapshot()
		return e > epochMid
	})
}

// Backup allocations share rows with each other and with the pass's
// no-failure run, so nothing that serves one may write it: after link
// failures and repairs have pushed several of them, the set must still
// equal a fresh precompute on the same input.
func TestBackupPushesLeaveBackupsIntact(t *testing.T) {
	ctrl, brokers, client := startSystem(t)
	for _, dst := range []string{"DC4", "DC3", "DC5", "DC6"} {
		if res := submit(t, client, "DC1", dst, 300, 0.95); !res.Admitted {
			t.Fatalf("DC1-%s refused", dst)
		}
	}
	if err := ctrl.Reschedule(); err != nil {
		t.Fatal(err)
	}
	hits := metrics.Snapshot()["bate.recovery_backup_hits"]
	for _, l := range [][2]string{{"DC1", "DC4"}, {"DC1", "DC2"}, {"DC2", "DC3"}, {"DC5", "DC6"}} {
		for _, up := range []bool{false, true} {
			_, before := ctrl.Snapshot()
			if err := brokers[l[0]].ReportLink(l[0], l[1], up); err != nil {
				t.Fatal(err)
			}
			waitFor(t, "push after link event", func() bool {
				_, e := ctrl.Snapshot()
				return e > before
			})
		}
	}
	if n := metrics.Snapshot()["bate.recovery_backup_hits"] - hits; n != 4 {
		t.Fatalf("%d of 4 failures served from a backup", n)
	}
	ctrl.mu.Lock()
	in, _ := ctrl.inputLocked()
	got := ctrl.backups
	ctrl.mu.Unlock()
	want, err := bate.PrecomputeBackups(in, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() || got.Len() != in.Net.NumLinks() {
		t.Fatalf("controller holds %d backups, fresh precompute %d", got.Len(), want.Len())
	}
	for _, l := range in.Net.Links() {
		g, _ := got.For(in, []topo.LinkID{l.ID})
		w, _ := want.For(in, []topo.LinkID{l.ID})
		if !reflect.DeepEqual(g.Alloc, w.Alloc) || !reflect.DeepEqual(g.FullProfit, w.FullProfit) || g.Profit != w.Profit {
			t.Fatalf("backup for link %d changed after being served", l.ID)
		}
	}
}

// A backup set covers the book it was computed for. After a round, a
// fixed admit puts a demand on the book that the round's set has never
// seen: every single-link recovery pushed after it must still carry the
// new demand in full, not a plan that leaves it out.
func TestBackupsDroppedOnAdmit(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runSequence(ctrl, []step{{"DC1", "DC4", 300, 0.95}, {"DC1", "DC3", 300, 0.95}}) {
		if !r.Admitted {
			t.Fatalf("setup admission refused: %+v", r)
		}
	}
	if err := ctrl.Reschedule(); err != nil {
		t.Fatal(err)
	}
	late := runSequence(ctrl, []step{{"DC2", "DC5", 200, 0.95}})[0]
	if !late.Admitted || late.Method != string(bate.MethodFixed) {
		t.Fatalf("DC2-DC5 admission: %+v, want a fixed admit", late)
	}

	// DC2 is the new demand's source, so it forwards every one of its
	// tunnels: its pushes carry the demand's whole allocation.
	src, _ := n.NodeByName("DC2")
	dst, _ := n.NodeByName("DC5")
	labels := make(map[uint32]bool)
	for ti := range ts.For(src, dst) {
		l, err := wire.Label(late.DemandID, ti)
		if err != nil {
			t.Fatal(err)
		}
		labels[l] = true
	}
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	pushes := make(chan *wire.AllocUpdate, 1)
	go func() {
		defer close(pushes)
		rc := wire.New(b)
		for {
			m, err := rc.Recv()
			if err != nil {
				return
			}
			pushes <- m.Alloc
		}
	}()
	ctrl.mu.Lock()
	ctrl.brokers["DC2"] = wire.New(a)
	ctrl.mu.Unlock()
	next := func() *wire.AllocUpdate {
		t.Helper()
		select {
		case u := <-pushes:
			if u == nil {
				t.Fatal("broker pipe closed")
			}
			return u
		case <-time.After(5 * time.Second):
			t.Fatal("no push")
		}
		return nil
	}

	for _, l := range n.Links() {
		s, d := n.NodeName(l.Src), n.NodeName(l.Dst)
		ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: s, DstDC: d, Up: false})
		u := next()
		got := 0.0
		for _, ta := range u.Tunnels {
			if labels[ta.Label] {
				got += ta.Rate
			}
		}
		if !u.Backup || got < 200-1e-6 {
			t.Errorf("%s-%s down: recovery push (backup=%v) gives the new demand %.1f of 200 Mbps", s, d, u.Backup, got)
		}
		ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: s, DstDC: d, Up: true})
		next()
	}
}

func TestRescheduleEmpty(t *testing.T) {
	ctrl, _, _ := startSystem(t)
	if err := ctrl.Reschedule(); err != nil {
		t.Fatal(err)
	}
}

func TestBadHello(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, _ := New(Config{Net: n, Tunnels: ts, Logf: silent})
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ctrl.Serve(ctx, ln)

	c, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Send(&wire.Message{Type: wire.TypePing})
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeError {
		t.Fatalf("got %+v, want error", reply)
	}
}

// TestLegacyJSONPeerRejected: a peer that frames with a 4-byte JSON
// length prefix (first byte 0x00) is a frame error. Its session is
// closed and counted once in controller.frame_errors, and binary
// clients on the same controller are served before and after it.
func TestLegacyJSONPeerRejected(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	stubAdmission(ctrl, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ctrl.Serve(ctx, ln)
	addr := ln.Addr().String()
	served := func(when string) {
		t.Helper()
		if reply, err := submitOne(dialClient(t, addr), 1); err != nil || reply.Type != wire.TypeAdmitResult {
			t.Fatalf("binary client %s the JSON peer: %+v, %v", when, reply, err)
		}
	}
	served("before")

	before := metrics.Snapshot()["controller.frame_errors"]
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	var legacy []byte
	for _, body := range []string{`{"type":"hello","hello":{"role":"client"}}`, `{"type":"status","seq":1}`} {
		legacy = binary.BigEndian.AppendUint32(legacy, uint32(len(body)))
		legacy = append(legacy, body...)
	}
	if _, err := nc.Write(legacy); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	got, err := nc.Read(make([]byte, 256))
	var ne net.Error
	if got > 0 || err == nil || errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("JSON peer read %d bytes, err %v; want its session closed", got, err)
	}
	if d := metrics.Snapshot()["controller.frame_errors"] - before; d != 1 {
		t.Fatalf("controller.frame_errors advanced by %d, want 1", d)
	}
	served("after")
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("expected config validation error")
	}
}

func TestConcurrentClients(t *testing.T) {
	ctrl, _, _ := startSystem(t)
	addr := lastAddr
	const clients = 5
	done := make(chan int, clients)
	for c := 0; c < clients; c++ {
		go func(c int) {
			conn, err := wire.Dial(addr)
			if err != nil {
				done <- -1
				return
			}
			defer conn.Close()
			conn.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "client"}})
			admitted := 0
			for i := 0; i < 4; i++ {
				conn.Send(&wire.Message{Type: wire.TypeSubmit, Submit: &wire.Submit{
					Src: "DC1", Dst: "DC5", Bandwidth: 50, Target: 0.95, Charge: 50, RefundFrac: 0.1,
				}})
				reply, err := conn.Recv()
				if err != nil || reply.AdmitResult == nil {
					done <- -1
					return
				}
				if reply.AdmitResult.Admitted {
					admitted++
				}
			}
			done <- admitted
		}(c)
	}
	total := 0
	for c := 0; c < clients; c++ {
		n := <-done
		if n < 0 {
			t.Fatal("client failed")
		}
		total += n
	}
	nd, _ := ctrl.Snapshot()
	if nd != total {
		t.Fatalf("controller holds %d demands, clients admitted %d", nd, total)
	}
	if total == 0 {
		t.Fatal("nothing admitted")
	}
}

func TestStatusQuery(t *testing.T) {
	_, _, client := startSystem(t)
	r := submit(t, client, "DC1", "DC4", 400, 0.99)
	if !r.Admitted {
		t.Fatal("setup admission failed")
	}
	client.Send(&wire.Message{Type: wire.TypeStatus})
	reply, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeStatusReply || reply.Status == nil {
		t.Fatalf("reply %+v", reply)
	}
	if len(reply.Status.Demands) != 1 {
		t.Fatalf("%d demands in status", len(reply.Status.Demands))
	}
	d := reply.Status.Demands[0]
	if d.Src != "DC1" || d.Dst != "DC4" || d.Bandwidth != 400 {
		t.Fatalf("status row %+v", d)
	}
	if d.Achieved < d.Target {
		t.Fatalf("admitted demand at risk: achieved %v < target %v", d.Achieved, d.Target)
	}
	if d.Allocated < 400-1 {
		t.Fatalf("allocated %v", d.Allocated)
	}
}

func TestEndToEndBatchSubmit(t *testing.T) {
	ctrl, _, client := startSystem(t)
	batch := []wire.Submit{
		{Src: "DC1", Dst: "DC3", Bandwidth: 300, Target: 0.99, Charge: 300, RefundFrac: 0.1},
		{Src: "DC2", Dst: "DC5", Bandwidth: 300, Target: 0.9, Charge: 300, RefundFrac: 0.1},
		{Src: "bogus", Dst: "DC2", Bandwidth: 10},
		{Src: "DC1", Dst: "DC3", Bandwidth: 99999, Target: 0.99},
	}
	if err := client.Send(&wire.Message{Type: wire.TypeSubmitBatch, SubmitBatch: batch}); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeAdmitBatchResult || len(reply.AdmitBatchResult) != len(batch) {
		t.Fatalf("reply %+v", reply)
	}
	r := reply.AdmitBatchResult
	if !r[0].Admitted || !r[1].Admitted {
		t.Fatalf("feasible demands refused: %+v", r[:2])
	}
	if r[0].DemandID == r[1].DemandID {
		t.Fatalf("duplicate ids assigned in one batch: %+v", r[:2])
	}
	if r[2].Admitted || r[2].Method != "invalid" {
		t.Fatalf("invalid entry: %+v", r[2])
	}
	if r[3].Admitted {
		t.Fatalf("oversized demand admitted: %+v", r[3])
	}
	nd, _ := ctrl.Snapshot()
	if nd != 2 {
		t.Fatalf("controller has %d demands, want 2", nd)
	}
}

func TestStatusCountersExposed(t *testing.T) {
	_, _, client := startSystem(t)
	if res := submit(t, client, "DC1", "DC3", 200, 0.99); !res.Admitted {
		t.Fatalf("admission refused: %+v", res)
	}
	if err := client.Send(&wire.Message{Type: wire.TypeStatus}); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Status == nil || reply.Status.Counters == nil {
		t.Fatalf("status reply carries no counters: %+v", reply)
	}
	if reply.Status.Counters["scenario.class_cache.misses"] == 0 {
		t.Fatal("admission ran but the class cache counted no misses")
	}
}
