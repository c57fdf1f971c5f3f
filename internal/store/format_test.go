package store

import (
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/topo"
)

// TestWALRecordBytesPinned pins the on-disk format against stores
// written before Record and Apply existed: a change here breaks every
// existing store on upgrade.
func TestWALRecordBytesPinned(t *testing.T) {
	t.Run("records", pinnedRecordBytes)
	t.Run("replay", pinnedStoreReplays)
}

// pinnedRecordBytes: one record of each type must frame to the bytes
// recorded from that store, whether it is appended as a Record or
// through the per-type call.
func pinnedRecordBytes(t *testing.T) {
	n := topo.Testbed()
	d := mkDemand(t, n, 7, "DC1", "DC3", 400, 0.99)
	d.Start, d.End, d.Service = 10, 250.5, "storage"
	rows := [][]float64{{100, 300, 0, 0}}
	sched := alloc.Allocation{7: {{50, 350, 0, 0}}, 9: {{300, 0, 0, 0.25}}}
	l14, _ := n.LinkBetween(dcID(t, n, "DC1"), dcID(t, n, "DC4"))
	cases := []struct {
		rec    Record
		append func(s *Store) error
		hex    string
	}{
		{Admit{Demand: d, Rows: rows}, func(s *Store) error { return s.AppendAdmit(d, rows) },
			"000000c82a7f941501017b2264656d616e64223a5b7b226964223a372c227061697273223a5b7b22737263223a22444331222c" +
				"22647374223a22444333222c2262616e6477696474685f6d627073223a3430307d5d2c22746172676574223a302e39392c22" +
				"73746172745f736563223a31302c22656e645f736563223a3235302e352c22636861726765223a3430302c22726566756e64" +
				"5f66726163223a302e312c2273657276696365223a2273746f72616765227d5d2c22616c6c6f63223a5b5b3130302c333030" +
				"2c302c305d5d7d"},
		{Withdraw{ID: 7}, func(s *Store) error { return s.AppendWithdraw(7) },
			"0000000a559babe401027b226964223a377d"},
		{Link{ID: l14.ID, Up: false}, func(s *Store) error { return s.AppendLink("DC1", "DC4", false) },
			"000000260627805e01037b22737263223a22444331222c22647374223a22444334222c227570223a66616c73657d"},
		{Epoch{Epoch: 12}, func(s *Store) error { return s.AppendEpoch(12) },
			"0000000e5580368401047b2265706f6368223a31327d"},
		{Schedule{Alloc: sched}, func(s *Store) error { return s.AppendSchedule(sched) },
			"00000035b64c066801057b22616c6c6f63223a7b2237223a5b5b35302c3335302c302c305d5d2c2239223a5b5b3330302c30" +
				"2c302c302e32355d5d7d7d"},
	}
	for _, c := range cases {
		for _, via := range []string{"Append", "per-type"} {
			dir := t.TempDir()
			s, err := Open(dir, n, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			if via == "Append" {
				err = s.Append(c.rec)
			} else {
				err = c.append(s)
			}
			if err != nil {
				t.Fatal(err)
			}
			s.Close()
			got, err := os.ReadFile(filepath.Join(dir, walName))
			if err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(got) != c.hex {
				t.Fatalf("%s record via %s:\n got %x\nwant %s", c.rec.Type(), via, got, c.hex)
			}
		}
	}
}

// pinnedStoreReplays opens a snapshot plus WAL written by that store
// (testdata/v1: two admits, an epoch and two link failures compacted
// into the snapshot, then a schedule, an admit, a withdraw, a repair, a
// link record naming an unknown DC and an epoch) and requires the exact
// state it held. Open and Inspect share the load loop; both must agree.
func pinnedStoreReplays(t *testing.T) {
	n := topo.Testbed()
	dir := t.TempDir()
	for _, name := range []string{snapshotName, walName} {
		b, err := os.ReadFile(filepath.Join("testdata", "v1", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	d1 := mkDemand(t, n, 1, "DC1", "DC3", 400, 0.99)
	d5 := &demand.Demand{ID: 5, Target: 0.9, Charge: 100, RefundFrac: 0.2, Start: 3, End: 90,
		Pairs: []demand.PairDemand{{Src: dcID(t, n, "DC1"), Dst: dcID(t, n, "DC6"), Bandwidth: 100}}}
	l14, _ := n.LinkBetween(dcID(t, n, "DC1"), dcID(t, n, "DC4"))
	want := &State{
		Demands:  map[int]*demand.Demand{1: d1, 5: d5},
		Current:  alloc.Allocation{1: {{50, 350, 0, 0}}, 5: {{100, 0, 0, 0}}},
		LinkDown: map[topo.LinkID]bool{l14.ID: true},
		Epoch:    9,
		NextID:   6,
	}
	sum, err := Inspect(dir, n)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SnapshotDemands != 2 || sum.WALRecords != 6 || sum.TornTail || sum.Demands != 2 ||
		sum.NextID != 6 || sum.Epoch != 9 || sum.LinksDown != 1 || sum.AllocatedDemands != 2 {
		t.Fatalf("inspect summary %+v", sum)
	}
	s, err := Open(dir, n, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Restored(); !reflect.DeepEqual(got, want) {
		t.Fatalf("replayed state:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotRejectsDuplicateID: a snapshot that books one id twice
// cannot be the state any controller acked, so decoding refuses it.
func TestSnapshotRejectsDuplicateID(t *testing.T) {
	n := topo.Testbed()
	snap := `{"version":1,"next_id":2,"epoch":0,"demands":[
	  {"id":1,"pairs":[{"src":"DC1","dst":"DC2","bandwidth_mbps":10}],"target":0.9},
	  {"id":1,"pairs":[{"src":"DC1","dst":"DC3","bandwidth_mbps":10}],"target":0.9}
	]}`
	_, err := decodeSnapshot(strings.NewReader(snap), n)
	if err == nil || !strings.Contains(err.Error(), "duplicate demand id 1") {
		t.Fatalf("decode of a duplicate-id snapshot: err = %v", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, snapshotName), []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, n, testOpts()); err == nil {
		t.Fatal("Open accepted a duplicate-id snapshot")
	}
}
