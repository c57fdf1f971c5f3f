package controller

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bate/internal/demand"
	"bate/internal/routing"
	"bate/internal/store"
	"bate/internal/topo"
	"bate/internal/wire"
)

func newStoreController(t *testing.T, dir string) (*Controller, *store.Store) {
	t.Helper()
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	st, err := store.Open(dir, n, store.Options{NoSync: true, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl, st
}

// stateOf snapshots a controller's demand book and allocation by
// value for exact comparison.
func stateOf(c *Controller) (map[int]demand.Demand, map[int][][]float64, uint64, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	demands := make(map[int]demand.Demand, len(c.st.Demands))
	for id, d := range c.st.Demands {
		demands[id] = *d
	}
	current := make(map[int][][]float64, len(c.st.Current))
	for id, rows := range c.st.Current {
		cp := make([][]float64, len(rows))
		for i, r := range rows {
			cp[i] = append([]float64(nil), r...)
		}
		current[id] = cp
	}
	return demands, current, c.st.Epoch, c.st.NextID
}

type step struct {
	src, dst   string
	bw, target float64
}

func runSequence(c *Controller, steps []step) []*wire.AdmitResult {
	out := make([]*wire.AdmitResult, len(steps))
	for i, s := range steps {
		out[i] = c.submit(&wire.Submit{
			Src: s.src, Dst: s.dst, Bandwidth: s.bw, Target: s.target,
			Charge: s.bw, RefundFrac: 0.1,
		})
	}
	return out
}

// TestCrashRecoveryTornAppend is the headline §4 failure drill: a
// master admits demands, dies kill -9-style in the middle of a WAL
// append (before acking anyone), and the recovered controller must
// hold byte-identical demand/allocation state and make decisions
// identical to a master that never crashed.
func TestCrashRecoveryTornAppend(t *testing.T) {
	dir := t.TempDir()
	ctrl, st := newStoreController(t, dir)

	initial := []step{
		{"DC1", "DC3", 400, 0.99},
		{"DC2", "DC6", 300, 0.95},
		{"DC1", "DC4", 99999, 0.99}, // rejected: over capacity
		{"DC1", "DC4", 200, 0.999},
		{"DC5", "DC6", 250, 0.9},
	}
	initialRes := runSequence(ctrl, initial)
	for i, want := range []bool{true, true, false, true, true} {
		if initialRes[i].Admitted != want {
			t.Fatalf("setup step %d: admitted=%v, want %v (%+v)", i, initialRes[i].Admitted, want, initialRes[i])
		}
	}
	wantDemands, wantAlloc, wantEpoch, wantNextID := stateOf(ctrl)

	// Crash mid-append: the process dies after writing part of the next
	// record. Nothing past the last complete record was ever acked.
	st.Close()
	f, err := os.OpenFile(filepath.Join(dir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 77, 0xde, 0xad, 0xbe}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recovered, _ := newStoreController(t, dir)
	gotDemands, gotAlloc, gotEpoch, gotNextID := stateOf(recovered)
	if !reflect.DeepEqual(gotDemands, wantDemands) {
		t.Fatalf("recovered demand book differs:\n got %+v\nwant %+v", gotDemands, wantDemands)
	}
	if !reflect.DeepEqual(gotAlloc, wantAlloc) {
		t.Fatalf("recovered allocation differs:\n got %+v\nwant %+v", gotAlloc, wantAlloc)
	}
	if gotEpoch != wantEpoch {
		t.Fatalf("recovered epoch %d, want %d", gotEpoch, wantEpoch)
	}
	if gotNextID != wantNextID {
		t.Fatalf("recovered next id %d, want %d", gotNextID, wantNextID)
	}

	// A client retrying its unacked submit (echoing the id it was
	// assigned before the crash) is answered idempotently.
	dup := recovered.submit(&wire.Submit{
		DemandID: initialRes[0].DemandID,
		Src:      "DC1", Dst: "DC3", Bandwidth: 400, Target: 0.99, Charge: 400, RefundFrac: 0.1,
	})
	if !dup.Admitted || dup.Method != "duplicate" || dup.DemandID != initialRes[0].DemandID {
		t.Fatalf("retry after failover not idempotent: %+v", dup)
	}
	if nd, _ := recovered.Snapshot(); nd != 4 {
		t.Fatalf("retry double-admitted: %d demands, want 4", nd)
	}

	// Identical subsequent decisions: an uninterrupted control
	// controller that ran the same history must decide the follow-up
	// sequence exactly like the recovered one.
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	control, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	controlInitial := runSequence(control, initial)
	for i := range initialRes {
		if initialRes[i].Admitted != controlInitial[i].Admitted ||
			initialRes[i].Method != controlInitial[i].Method ||
			initialRes[i].DemandID != controlInitial[i].DemandID {
			t.Fatalf("control run diverged on setup step %d: %+v vs %+v",
				i, initialRes[i], controlInitial[i])
		}
	}
	followUp := []step{
		{"DC2", "DC3", 150, 0.99},
		{"DC1", "DC3", 900, 0.95}, // contended after the book above
		{"DC4", "DC5", 100, 0.9995},
		{"DC1", "DC6", 99999, 0.9}, // rejected
	}
	gotRes := runSequence(recovered, followUp)
	wantRes := runSequence(control, followUp)
	for i := range followUp {
		if gotRes[i].Admitted != wantRes[i].Admitted ||
			gotRes[i].Method != wantRes[i].Method ||
			gotRes[i].DemandID != wantRes[i].DemandID {
			t.Fatalf("follow-up step %d diverged after recovery:\nrecovered %+v\ncontrol   %+v",
				i, gotRes[i], wantRes[i])
		}
	}
}

func TestRecoveryAfterWithdrawAndCompaction(t *testing.T) {
	dir := t.TempDir()
	ctrl, _ := newStoreController(t, dir)
	res := runSequence(ctrl, []step{
		{"DC1", "DC3", 400, 0.99},
		{"DC2", "DC6", 300, 0.95},
		{"DC1", "DC6", 100, 0.9},
	})
	if err := ctrl.withdraw(res[1].DemandID); err != nil {
		t.Fatal(err)
	}
	if err := ctrl.CompactStore(); err != nil {
		t.Fatal(err)
	}
	// More mutations on top of the fresh snapshot.
	after := runSequence(ctrl, []step{{"DC4", "DC5", 120, 0.99}})
	if !after[0].Admitted {
		t.Fatalf("post-compaction admission refused: %+v", after[0])
	}
	wantDemands, wantAlloc, wantEpoch, wantNextID := stateOf(ctrl)

	recovered, _ := newStoreController(t, dir)
	gotDemands, gotAlloc, gotEpoch, gotNextID := stateOf(recovered)
	if !reflect.DeepEqual(gotDemands, wantDemands) {
		t.Fatalf("demand book differs:\n got %+v\nwant %+v", gotDemands, wantDemands)
	}
	if !reflect.DeepEqual(gotAlloc, wantAlloc) {
		t.Fatalf("allocation differs:\n got %+v\nwant %+v", gotAlloc, wantAlloc)
	}
	if gotEpoch != wantEpoch || gotNextID != wantNextID {
		t.Fatalf("epoch/nextID %d/%d, want %d/%d", gotEpoch, gotNextID, wantEpoch, wantNextID)
	}
}

func TestRecoveryReplaysLinkDownAndSchedule(t *testing.T) {
	dir := t.TempDir()
	ctrl, _ := newStoreController(t, dir)
	if res := runSequence(ctrl, []step{{"DC1", "DC4", 200, 0.99}}); !res[0].Admitted {
		t.Fatal("setup admission refused")
	}
	if err := ctrl.Reschedule(); err != nil {
		t.Fatal(err)
	}
	ctrl.onLinkEvent(&wire.LinkEvent{SrcDC: "DC1", DstDC: "DC4", Up: false})

	wantDemands, wantAlloc, _, _ := stateOf(ctrl)
	recovered, _ := newStoreController(t, dir)
	gotDemands, gotAlloc, _, _ := stateOf(recovered)
	if !reflect.DeepEqual(gotDemands, wantDemands) {
		t.Fatal("demand book lost across reschedule+failure recovery")
	}
	if !reflect.DeepEqual(gotAlloc, wantAlloc) {
		t.Fatalf("scheduled allocation not replayed:\n got %+v\nwant %+v", gotAlloc, wantAlloc)
	}
	n := topo.Testbed()
	src, _ := n.NodeByName("DC1")
	dst, _ := n.NodeByName("DC4")
	link, _ := n.LinkBetween(src, dst)
	recovered.mu.Lock()
	down := recovered.st.LinkDown[link.ID]
	recovered.mu.Unlock()
	if !down {
		t.Fatal("link-down fact lost across recovery")
	}
}

func TestIdempotentResubmitOverTCP(t *testing.T) {
	ctrl, _, client := startSystem(t)
	first := submit(t, client, "DC1", "DC3", 400, 0.99)
	if !first.Admitted {
		t.Fatalf("admission refused: %+v", first)
	}
	// Retry with the assigned id: answered without double-admitting.
	if err := client.Send(&wire.Message{Type: wire.TypeSubmit, Submit: &wire.Submit{
		DemandID: first.DemandID,
		Src:      "DC1", Dst: "DC3", Bandwidth: 400, Target: 0.99, Charge: 400, RefundFrac: 0.1,
	}}); err != nil {
		t.Fatal(err)
	}
	reply, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	r := reply.AdmitResult
	if r == nil || !r.Admitted || r.DemandID != first.DemandID || r.Method != "duplicate" {
		t.Fatalf("resubmit reply %+v", reply)
	}
	if nd, _ := ctrl.Snapshot(); nd != 1 {
		t.Fatalf("%d demands after idempotent retry, want 1", nd)
	}
	// A stale id that names no live demand falls through to a fresh
	// admission under a new id.
	if err := client.Send(&wire.Message{Type: wire.TypeSubmit, Submit: &wire.Submit{
		DemandID: 3999,
		Src:      "DC2", Dst: "DC5", Bandwidth: 100, Target: 0.9, Charge: 100, RefundFrac: 0.1,
	}}); err != nil {
		t.Fatal(err)
	}
	reply, err = client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	r = reply.AdmitResult
	if r == nil || !r.Admitted || r.DemandID == 3999 || r.DemandID == 0 {
		t.Fatalf("stale-id resubmit reply %+v", reply)
	}
	// The same retry inside a batch frame is answered the same way,
	// next to a fresh entry that is admitted under a new id.
	if err := client.Send(&wire.Message{Type: wire.TypeSubmitBatch, SubmitBatch: []wire.Submit{
		{DemandID: first.DemandID, Src: "DC1", Dst: "DC3", Bandwidth: 400, Target: 0.99, Charge: 400, RefundFrac: 0.1},
		{Src: "DC2", Dst: "DC6", Bandwidth: 100, Target: 0.9, Charge: 100, RefundFrac: 0.1},
	}}); err != nil {
		t.Fatal(err)
	}
	reply, err = client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	br := reply.AdmitBatchResult
	if len(br) != 2 || !br[0].Admitted || br[0].DemandID != first.DemandID || br[0].Method != "duplicate" {
		t.Fatalf("batch resubmit reply %+v", reply)
	}
	if !br[1].Admitted || br[1].Method == "duplicate" || br[1].DemandID == first.DemandID || br[1].DemandID == r.DemandID {
		t.Fatalf("fresh batch entry reply %+v", br[1])
	}
	if nd, _ := ctrl.Snapshot(); nd != 3 {
		t.Fatalf("%d demands after batch retry, want 3", nd)
	}
}

func TestDemandIDZeroNeverAssigned(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	seen := make(map[int]bool)
	for i := 0; i < 100; i++ {
		id := ctrl.st.AllocateID()
		if id == 0 {
			t.Fatal("id 0 assigned: it is the wire sentinel for unassigned")
		}
		if seen[id] {
			// AllocateID reuses free ids; mark them used.
			t.Fatalf("id %d assigned twice while marked used", id)
		}
		seen[id] = true
		ctrl.st.Demands[id] = &demand.Demand{ID: id}
	}
}
