package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bate/internal/alloc"
	"bate/internal/chaos"
	"bate/internal/topo"
)

// TestGroupAppendReplaysInOrder: a group is the records appended one
// by one, byte for byte, and replays in order.
func TestGroupAppendReplaysInOrder(t *testing.T) {
	n := topo.Testbed()
	l, _ := n.LinkBetween(dcID(t, n, "DC2"), dcID(t, n, "DC5"))
	d1 := mkDemand(t, n, 1, "DC1", "DC3", 400, 0.99)
	d2 := mkDemand(t, n, 2, "DC2", "DC6", 300, 0.95)
	groups := [][]Record{
		{Admit{Demand: d1, Rows: [][]float64{{100, 300}}}, Admit{Demand: d2}, Epoch{Epoch: 1}},
		{Withdraw{ID: 1}, Epoch{Epoch: 2}},
		{Link{ID: l.ID}, Schedule{Alloc: alloc.Allocation{2: {{50, 250}}}}, Epoch{Epoch: 3}},
	}

	grouped, single := t.TempDir(), t.TempDir()
	s, err := Open(grouped, n, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	one, err := Open(single, n, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		if err := s.Append(g...); err != nil {
			t.Fatal(err)
		}
		for _, r := range g {
			if err := one.Append(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	s.Close()
	one.Close()
	got, _ := os.ReadFile(filepath.Join(grouped, walName))
	want, _ := os.ReadFile(filepath.Join(single, walName))
	if !bytes.Equal(got, want) {
		t.Fatalf("grouped WAL differs from one-by-one appends: %d vs %d bytes", len(got), len(want))
	}

	s2, err := Open(grouped, n, testOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.WALRecords() != 8 {
		t.Fatalf("replayed %d records, want 8", s2.WALRecords())
	}
	st := s2.Restored()
	if len(st.Demands) != 1 || st.Demands[2] == nil || st.Epoch != 3 || !st.LinkDown[l.ID] {
		t.Fatalf("replayed state %+v", st)
	}
	if rows := st.Current[2]; len(rows) != 1 || rows[0][1] != 250 || st.Current[1] != nil {
		t.Fatalf("replayed allocation %v: the schedule must land after the withdraw", st.Current)
	}
}

// TestTornTailInsideGroup: a crash inside a group's write truncates to
// the last whole record, so an admit whose epoch frame is torn replays
// with the old epoch, and an admit torn itself does not replay.
func TestTornTailInsideGroup(t *testing.T) {
	n := topo.Testbed()
	d1 := mkDemand(t, n, 1, "DC1", "DC3", 400, 0.99)
	d2 := mkDemand(t, n, 2, "DC2", "DC6", 300, 0.95)
	epochFrame, err := encodeBody(RecEpoch, &epochBody{Epoch: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		cut     int // bytes torn off the end of the second group
		demands int
	}{
		{"epoch frame torn", 3, 2},
		{"epoch frame header only", len(epochFrame) - 5, 2},
		{"admit frame torn", len(epochFrame) + 4, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, n, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append(Admit{Demand: d1}, Epoch{Epoch: 1}); err != nil {
				t.Fatal(err)
			}
			if err := s.Append(Admit{Demand: d2}, Epoch{Epoch: 2}); err != nil {
				t.Fatal(err)
			}
			s.Close()
			walPath := filepath.Join(dir, walName)
			full, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(walPath, int64(len(full)-tc.cut)); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir, n, testOpts())
			if err != nil {
				t.Fatalf("open with a torn group: %v", err)
			}
			defer s2.Close()
			st := s2.Restored()
			if len(st.Demands) != tc.demands || st.Epoch != 1 {
				t.Fatalf("replayed %d demands at epoch %d, want %d at epoch 1", len(st.Demands), st.Epoch, tc.demands)
			}
			wantRecords, wantBytes := 3, len(full)-len(epochFrame)
			if tc.demands == 1 {
				wantRecords = 2
				admit, err := s2.frame(Admit{Demand: d2})
				if err != nil {
					t.Fatal(err)
				}
				wantBytes -= len(admit)
			}
			if s2.WALRecords() != wantRecords {
				t.Fatalf("WAL holds %d records, want %d", s2.WALRecords(), wantRecords)
			}
			if got, _ := os.ReadFile(walPath); len(got) != wantBytes || !bytes.Equal(got, full[:wantBytes]) {
				t.Fatalf("torn group truncated to %d bytes, want the %d-byte whole-record prefix", len(got), wantBytes)
			}
		})
	}
}

// TestTornTailLostPageInsideGroup: a group reaches the disk with one
// fsync, so a crash can keep a later page of it and lose an earlier
// one. A damaged frame inside the final group, with whole frames after
// it, is a torn tail: Open truncates at the damaged frame. Damage with
// a whole Epoch frame after it (the group it lies in was followed by
// another), or with a whole non-epoch frame ending the log, is still
// corruption.
func TestTornTailLostPageInsideGroup(t *testing.T) {
	n := topo.Testbed()
	groups := [][]Record{
		{Admit{Demand: mkDemand(t, n, 1, "DC1", "DC3", 400, 0.99)}, Epoch{Epoch: 1}},
		{Admit{Demand: mkDemand(t, n, 2, "DC2", "DC6", 300, 0.95)},
			Admit{Demand: mkDemand(t, n, 3, "DC1", "DC4", 200, 0.9)}, Epoch{Epoch: 2}},
	}
	// Frames, in log order: 0 admit 1, 1 epoch 1, 2 admit 2, 3 admit 3,
	// 4 epoch 2.
	zero := func(b []byte) {
		for i := range b {
			b[i] = 0
		}
	}
	for _, tc := range []struct {
		name    string
		damage  func(wal []byte, frames [][]byte) []byte
		torn    int // frame the log is truncated at; -1: corrupt
		demands int
	}{
		{"admit zeroed", func(w []byte, f [][]byte) []byte { zero(f[2]); return w }, 2, 1},
		{"admit header zeroed", func(w []byte, f [][]byte) []byte { zero(f[2][:8]); return w }, 2, 1},
		{"admit checksum", func(w []byte, f [][]byte) []byte { f[2][12] ^= 0xff; return w }, 2, 1},
		{"second admit zeroed", func(w []byte, f [][]byte) []byte { zero(f[3]); return w }, 3, 2},
		{"admits zeroed", func(w []byte, f [][]byte) []byte { zero(f[2]); zero(f[3]); return w }, 2, 1},
		{"admit and epoch zeroed", func(w []byte, f [][]byte) []byte { zero(f[2]); zero(f[4]); return w }, 2, 1},
		{"earlier group damaged", func(w []byte, f [][]byte) []byte { f[0][12] ^= 0xff; return w }, -1, 0},
		{"log ends in a whole admit", func(w []byte, f [][]byte) []byte {
			f[2][12] ^= 0xff
			return w[:len(w)-len(f[4])]
		}, -1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, n, testOpts())
			if err != nil {
				t.Fatal(err)
			}
			var sizes []int
			for _, g := range groups {
				if err := s.Append(g...); err != nil {
					t.Fatal(err)
				}
				for _, r := range g {
					f, err := s.frame(r)
					if err != nil {
						t.Fatal(err)
					}
					sizes = append(sizes, len(f))
				}
			}
			s.Close()
			walPath := filepath.Join(dir, walName)
			wal, err := os.ReadFile(walPath)
			if err != nil {
				t.Fatal(err)
			}
			clean := append([]byte(nil), wal...)
			var frames [][]byte
			var starts []int
			off := 0
			for _, size := range sizes {
				frames = append(frames, wal[off:off+size])
				starts = append(starts, off)
				off += size
			}
			if err := os.WriteFile(walPath, tc.damage(wal, frames), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir, n, testOpts())
			if tc.torn < 0 {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("open = %v, want *CorruptError", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("open with a lost page inside the final group: %v", err)
			}
			defer s2.Close()
			st := s2.Restored()
			if len(st.Demands) != tc.demands || st.Epoch != 1 {
				t.Fatalf("replayed %d demands at epoch %d, want %d at epoch 1", len(st.Demands), st.Epoch, tc.demands)
			}
			if s2.WALRecords() != tc.torn {
				t.Fatalf("WAL holds %d records, want %d", s2.WALRecords(), tc.torn)
			}
			want := clean[:starts[tc.torn]]
			if got, _ := os.ReadFile(walPath); !bytes.Equal(got, want) {
				t.Fatalf("truncated to %d bytes, want the %d bytes before the damaged frame", len(got), len(want))
			}
		})
	}
}

// TestGroupAppendFaultsRepaired: short writes and failed fsyncs on a
// group roll the WAL back to the group's start, and the retried group
// lands once.
func TestGroupAppendFaultsRepaired(t *testing.T) {
	n := topo.Testbed()
	for _, tc := range []struct {
		name string
		cfg  chaos.FSConfig
	}{
		{"short write", chaos.FSConfig{WriteEveryN: 2}},
		{"sync failure", chaos.FSConfig{SyncEveryN: 3}},
		{"both", chaos.FSConfig{WriteEveryN: 3, SyncEveryN: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fs := chaos.NewFS(tc.cfg)
			s, err := Open(dir, n, chaosOpts(fs, false))
			if err != nil {
				t.Fatal(err)
			}
			const demands = 6
			failures := 0
			for id := 1; id <= demands; id++ {
				d := mkDemand(t, n, id, "DC1", "DC4", float64(20*id), 0.99)
				failures += appendRetry(t, func() error {
					return s.Append(Admit{Demand: d, Rows: [][]float64{{float64(20 * id)}}}, Epoch{Epoch: uint64(id)})
				})
			}
			if failures == 0 {
				t.Fatal("no faults injected; the fault front is not wired in")
			}
			if s.Wedged() {
				t.Fatal("store wedged; tail repair should have recovered every failure")
			}
			s.Close()

			s2, err := Open(dir, n, testOpts())
			if err != nil {
				t.Fatalf("reopen after repaired group faults: %v", err)
			}
			defer s2.Close()
			st := s2.Restored()
			if len(st.Demands) != demands || st.Epoch != demands {
				t.Fatalf("replayed %d demands at epoch %d, want %d at epoch %d", len(st.Demands), st.Epoch, demands, demands)
			}
			if s2.WALRecords() != 2*demands {
				t.Fatalf("WAL holds %d records, want %d (duplicates would mean the rollback missed)", s2.WALRecords(), 2*demands)
			}
		})
	}
}
