package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/topo"
)

func silent(string, ...interface{}) {}

func testOpts() Options { return Options{NoSync: true, Logf: silent} }

func dcID(t *testing.T, n *topo.Network, name string) topo.NodeID {
	t.Helper()
	id, ok := n.NodeByName(name)
	if !ok {
		t.Fatalf("unknown DC %s", name)
	}
	return id
}

func mkDemand(t *testing.T, n *topo.Network, id int, src, dst string, bw, target float64) *demand.Demand {
	t.Helper()
	return &demand.Demand{
		ID:     id,
		Pairs:  []demand.PairDemand{{Src: dcID(t, n, src), Dst: dcID(t, n, dst), Bandwidth: bw}},
		Target: target, Charge: bw, RefundFrac: 0.1,
	}
}

func TestOpenEmpty(t *testing.T) {
	n := topo.Testbed()
	s, err := Open(t.TempDir(), n, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Restored()
	if len(st.Demands) != 0 || len(st.Current) != 0 || st.Epoch != 0 {
		t.Fatalf("fresh store restored non-empty state: %+v", st)
	}
	if st.NextID != 1 {
		t.Fatalf("fresh store next id %d, want 1 (0 is the wire sentinel)", st.NextID)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	n := topo.Testbed()
	dir := t.TempDir()
	s, err := Open(dir, n, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	d1 := mkDemand(t, n, 1, "DC1", "DC3", 400, 0.99)
	d2 := mkDemand(t, n, 2, "DC2", "DC6", 300, 0.95)
	rows := [][]float64{{100, 300, 0, 0}}
	if err := s.AppendAdmit(d1, rows); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAdmit(d2, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendEpoch(7); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendLink("DC1", "DC4", false); err != nil {
		t.Fatal(err)
	}
	full := alloc.Allocation{1: {{50, 350, 0, 0}}, 2: {{300, 0, 0, 0}}}
	if err := s.AppendSchedule(full); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendAdmit(mkDemand(t, n, 3, "DC1", "DC6", 100, 0.9), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendWithdraw(2); err != nil {
		t.Fatal(err)
	}
	if got := s.WALRecords(); got != 7 {
		t.Fatalf("WALRecords = %d, want 7", got)
	}
	s.Close()

	s2, err := Open(dir, n, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Restored()
	if len(st.Demands) != 2 {
		t.Fatalf("replayed %d demands, want 2 (ids 1, 3)", len(st.Demands))
	}
	if st.Demands[2] != nil {
		t.Fatal("withdrawn demand 2 survived replay")
	}
	if got := st.Demands[1]; got == nil || got.Target != 0.99 || got.Pairs[0].Bandwidth != 400 {
		t.Fatalf("demand 1 replayed wrong: %+v", got)
	}
	if st.Epoch != 7 {
		t.Fatalf("epoch %d, want 7", st.Epoch)
	}
	link, _ := n.LinkBetween(dcID(t, n, "DC1"), dcID(t, n, "DC4"))
	if !st.LinkDown[link.ID] {
		t.Fatal("link-down fact lost in replay")
	}
	// Schedule replaced the allocation; withdraw removed id 2's rows.
	want := alloc.Allocation{1: {{50, 350, 0, 0}}}
	if !reflect.DeepEqual(st.Current, want) {
		t.Fatalf("allocation = %v, want %v", st.Current, want)
	}
	// NextID resumes past the max replayed id.
	if st.NextID != 4 {
		t.Fatalf("next id %d, want 4", st.NextID)
	}
}

func TestLinkRepairReplays(t *testing.T) {
	n := topo.Testbed()
	dir := t.TempDir()
	s, _ := Open(dir, n, testOpts())
	s.AppendLink("DC1", "DC4", false)
	s.AppendLink("DC2", "DC5", false)
	s.AppendLink("DC1", "DC4", true)
	s.Close()
	s2, err := Open(dir, n, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st := s2.Restored()
	l14, _ := n.LinkBetween(dcID(t, n, "DC1"), dcID(t, n, "DC4"))
	l25, _ := n.LinkBetween(dcID(t, n, "DC2"), dcID(t, n, "DC5"))
	if st.LinkDown[l14.ID] {
		t.Fatal("repaired link still down after replay")
	}
	if !st.LinkDown[l25.ID] {
		t.Fatal("failed link not down after replay")
	}
}

func TestTornTailTruncated(t *testing.T) {
	n := topo.Testbed()
	dir := t.TempDir()
	s, _ := Open(dir, n, testOpts())
	if err := s.AppendAdmit(mkDemand(t, n, 1, "DC1", "DC3", 400, 0.99), nil); err != nil {
		t.Fatal(err)
	}
	s.Close()

	walPath := filepath.Join(dir, walName)
	clean, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Three kill -9 signatures: partial header, full header + partial
	// payload, and full payload with a garbage checksum at EOF.
	second, err := encodeRecord(RecWithdraw, []byte(`{"id":1}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, torn := range [][]byte{
		second[:3],             // mid-header
		second[:len(second)-2], // mid-payload
		flipLastByte(second),   // full length, corrupted bytes at tail
	} {
		f, _ := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0)
		f.Write(torn)
		f.Close()

		s2, err := Open(dir, n, testOpts())
		if err != nil {
			t.Fatalf("open with torn tail %d bytes: %v", len(torn), err)
		}
		st := s2.Restored()
		if len(st.Demands) != 1 || st.Demands[1] == nil {
			t.Fatalf("torn tail corrupted replayed state: %+v", st.Demands)
		}
		s2.Close()
		got, _ := os.ReadFile(walPath)
		if !bytes.Equal(got, clean) {
			t.Fatalf("torn tail not truncated: %d bytes, want %d", len(got), len(clean))
		}
	}
}

func flipLastByte(b []byte) []byte {
	out := append([]byte(nil), b...)
	out[len(out)-1] ^= 0xff
	return out
}

func TestCorruptInteriorRejected(t *testing.T) {
	n := topo.Testbed()
	dir := t.TempDir()
	s, _ := Open(dir, n, testOpts())
	s.AppendAdmit(mkDemand(t, n, 1, "DC1", "DC3", 400, 0.99), nil)
	s.AppendWithdraw(1)
	s.Close()

	walPath := filepath.Join(dir, walName)
	data, _ := os.ReadFile(walPath)
	// Flip a byte inside the FIRST record's payload: interior
	// corruption, not a tail artifact.
	data[12] ^= 0xff
	if err := os.WriteFile(walPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, n, testOpts())
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("open over corrupt interior: err = %v, want *CorruptError", err)
	}
	if ce.Offset != 0 {
		t.Fatalf("corrupt offset %d, want 0", ce.Offset)
	}
}

func TestCompact(t *testing.T) {
	n := topo.Testbed()
	dir := t.TempDir()
	s, _ := Open(dir, n, testOpts())
	s.AppendAdmit(mkDemand(t, n, 1, "DC1", "DC3", 400, 0.99), [][]float64{{400, 0, 0, 0}})
	s.AppendAdmit(mkDemand(t, n, 5, "DC2", "DC6", 300, 0.95), nil)
	s.AppendEpoch(3)
	s.AppendLink("DC1", "DC4", false)

	// Restored() reflects Open-time state, not appends; reopen so the
	// compaction input carries everything appended above.
	s.Close()
	s, err := Open(dir, n, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	st := s.Restored()
	if err := s.Compact(st); err != nil {
		t.Fatal(err)
	}
	if got := s.WALRecords(); got != 0 {
		t.Fatalf("WAL holds %d records after compact", got)
	}
	// Appends after compaction land in the fresh WAL.
	if err := s.AppendWithdraw(5); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(dir, n, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.Restored()
	if len(got.Demands) != 1 || got.Demands[1] == nil {
		t.Fatalf("post-compact replay demands: %+v", got.Demands)
	}
	if got.Epoch != 3 {
		t.Fatalf("epoch %d, want 3", got.Epoch)
	}
	link, _ := n.LinkBetween(dcID(t, n, "DC1"), dcID(t, n, "DC4"))
	if !got.LinkDown[link.ID] {
		t.Fatal("link-down fact lost across compaction")
	}
	want := alloc.Allocation{1: {{400, 0, 0, 0}}}
	if !reflect.DeepEqual(got.Current, want) {
		t.Fatalf("allocation = %v, want %v", got.Current, want)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	n := topo.Testbed()
	st := NewState()
	st.Demands[1] = mkDemand(t, n, 1, "DC1", "DC3", 400, 0.99)
	st.Demands[9] = mkDemand(t, n, 9, "DC2", "DC6", 300, 0.95)
	st.Current = alloc.Allocation{1: {{100, 300, 0, 0}}}
	link, _ := n.LinkBetween(dcID(t, n, "DC5"), dcID(t, n, "DC6"))
	st.LinkDown[link.ID] = true
	st.Epoch = 42
	st.NextID = 10

	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, n, st); err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(bytes.NewReader(buf.Bytes()), n)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Demands, st.Demands) {
		t.Fatalf("demands:\n got %+v\nwant %+v", got.Demands, st.Demands)
	}
	if !reflect.DeepEqual(got.Current, st.Current) {
		t.Fatalf("allocation: got %v want %v", got.Current, st.Current)
	}
	if !reflect.DeepEqual(got.LinkDown, st.LinkDown) {
		t.Fatalf("linkDown: got %v want %v", got.LinkDown, st.LinkDown)
	}
	if got.Epoch != 42 || got.NextID != 10 {
		t.Fatalf("epoch/nextID: %d/%d", got.Epoch, got.NextID)
	}
}

func TestRestoredIsACopy(t *testing.T) {
	n := topo.Testbed()
	s, _ := Open(t.TempDir(), n, testOpts())
	defer s.Close()
	a := s.Restored()
	a.Demands[99] = mkDemand(t, n, 99, "DC1", "DC2", 10, 0.9)
	a.Epoch = 5
	b := s.Restored()
	if len(b.Demands) != 0 || b.Epoch != 0 {
		t.Fatal("Restored returned a shared reference, not a copy")
	}
}

func TestInspect(t *testing.T) {
	n := topo.Testbed()
	dir := t.TempDir()
	s, _ := Open(dir, n, testOpts())
	s.AppendAdmit(mkDemand(t, n, 1, "DC1", "DC3", 400, 0.99), [][]float64{{400, 0, 0, 0}})
	s.AppendEpoch(1)
	s.Compact(s.Restored()) // snapshot exists (empty: Restored is Open-time)
	s.AppendAdmit(mkDemand(t, n, 2, "DC2", "DC6", 300, 0.95), nil)
	s.AppendWithdraw(2)
	s.Close()

	sum, err := Inspect(dir, n)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SnapshotBytes < 0 {
		t.Fatal("snapshot missing from summary")
	}
	if sum.WALRecords != 2 {
		t.Fatalf("WAL records %d, want 2", sum.WALRecords)
	}
	if sum.RecordsByType[RecAdmit] != 1 || sum.RecordsByType[RecWithdraw] != 1 {
		t.Fatalf("records by type: %v", sum.RecordsByType)
	}
	if sum.Demands != 0 {
		t.Fatalf("replayed demands %d, want 0 (compact happened before admits)", sum.Demands)
	}
	if sum.TornTail {
		t.Fatal("clean WAL reported torn")
	}

	// A torn tail shows up in the summary without being repaired.
	f, _ := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0)
	f.Write([]byte{0, 0, 0, 99, 1, 2})
	f.Close()
	sum, err = Inspect(dir, n)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.TornTail {
		t.Fatal("torn tail not reported")
	}
}

func TestOpenRejectsNilNetwork(t *testing.T) {
	if _, err := Open(t.TempDir(), nil, testOpts()); err == nil {
		t.Fatal("expected error for nil network")
	}
}

func TestDeriveNextIDWraps(t *testing.T) {
	st := NewState()
	st.Demands[4095] = &demand.Demand{ID: 4095}
	st.deriveNextID()
	if st.NextID != 1 {
		t.Fatalf("next id %d, want 1 (wrap past the 0 sentinel)", st.NextID)
	}
}
