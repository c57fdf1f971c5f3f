package store

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sync"

	"bate/internal/alloc"
	"bate/internal/demand"
	"bate/internal/metrics"
	"bate/internal/topo"
)

// File names inside a store directory.
const (
	snapshotName = "snapshot.json"
	walName      = "wal.log"
)

var (
	mAppends   = metrics.NewCounter("store.appends")
	mFsyncs    = metrics.NewCounter("store.fsyncs")
	mReplayed  = metrics.NewCounter("store.replayed_records")
	mTruncated = metrics.NewCounter("store.truncated_tails")
	mCompacts  = metrics.NewCounter("store.compactions")
	mRepairs   = metrics.NewCounter("store.append_repairs")
)

// File is the WAL backing-file contract: what Store needs from
// *os.File, as an interface so tests (and the chaos fault injector)
// can substitute a faulty implementation.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	io.Closer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
}

// Options tunes a Store.
type Options struct {
	// NoSync disables the fsync after every append. The default
	// (sync-per-append) is the §4 durability contract: a record is on
	// stable storage before the client is acked. NoSync trades that for
	// throughput — acceptable for simulations and tests, not for a
	// production master.
	NoSync bool
	// Logf receives diagnostics; nil uses the standard logger.
	Logf func(string, ...interface{})
	// OpenWAL opens the WAL backing file; nil uses os.OpenFile. Fault
	// injection hooks in here.
	OpenWAL func(path string) (File, error)
}

// Store is a durable controller state store: snapshot.json plus a
// write-ahead log of every mutating transition since. Safe for
// concurrent use.
type Store struct {
	dir  string
	net  *topo.Network
	opts Options
	logf func(string, ...interface{})

	mu         sync.Mutex
	wal        File
	walRecords int   // records in the current WAL (replayed + appended)
	tail       int64 // offset of the last durable byte in the WAL
	restored   *State
	closed     bool
	wedged     bool // tail repair failed; WAL interior may be corrupt
}

// Open opens (creating if necessary) the store in dir, replaying
// snapshot + WAL into the restored state. A torn tail — a crash
// mid-append, which may have lost any page of the group being written
// (see tornGroup) — is truncated away; corrupt interior records abort
// with a *CorruptError. Node references are
// resolved against net, which must match the topology the records
// were written under.
func Open(dir string, net *topo.Network, opts Options) (*Store, error) {
	if net == nil {
		return nil, fmt.Errorf("store: network is required")
	}
	logf := opts.Logf
	if logf == nil {
		logf = log.Printf
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	openWAL := opts.OpenWAL
	if openWAL == nil {
		openWAL = func(path string) (File, error) {
			return os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
		}
	}
	wal, err := openWAL(filepath.Join(dir, walName))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st, sum, tail, err := load(dir, net, wal)
	if err != nil {
		wal.Close()
		return nil, err
	}
	if sum.TornTail {
		if err := wal.Truncate(tail); err != nil {
			wal.Close()
			return nil, fmt.Errorf("store: truncate torn tail: %w", err)
		}
		mTruncated.Inc()
		logf("store: truncated torn WAL tail at offset %d", tail)
	}
	end, err := wal.Seek(0, io.SeekEnd)
	if err != nil {
		wal.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	mReplayed.Add(int64(sum.WALRecords))
	return &Store{dir: dir, net: net, opts: opts, logf: logf, wal: wal,
		walRecords: sum.WALRecords, tail: end, restored: st}, nil
}

// load is the one replay loop, shared by Open and Inspect: it decodes
// the snapshot in dir, if any, and applies every complete record of wal
// (nil when there is none) on top. It stops at a torn tail, whose
// offset it returns as tail, and fails with a *CorruptError on a
// corrupt interior record.
func load(dir string, net *topo.Network, wal File) (st *State, sum *Summary, tail int64, err error) {
	st = NewState()
	sum = &Summary{Dir: dir, SnapshotBytes: -1, RecordsByType: make(map[RecordType]int)}
	if f, err := os.Open(filepath.Join(dir, snapshotName)); err == nil {
		info, err := f.Stat()
		if err == nil {
			sum.SnapshotBytes = info.Size()
			st, err = decodeSnapshot(f, net)
		}
		f.Close()
		if err != nil {
			return nil, nil, 0, err
		}
		sum.SnapshotDemands = len(st.Demands)
	} else if !os.IsNotExist(err) {
		return nil, nil, 0, fmt.Errorf("store: %w", err)
	}
	if wal != nil {
		info, err := wal.Stat()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("store: %w", err)
		}
		sum.WALBytes = info.Size()
		if _, err := wal.Seek(0, io.SeekStart); err != nil {
			return nil, nil, 0, fmt.Errorf("store: %w", err)
		}
		r := bufio.NewReader(wal)
		for {
			t, body, err := readRecord(r, tail, sum.WALBytes)
			if err == io.EOF {
				break
			}
			if err == errTorn {
				sum.TornTail = true
				break
			}
			if ce, ok := err.(*CorruptError); ok && ce.damaged {
				rest, rerr := readFrom(wal, tail)
				if rerr != nil {
					return nil, nil, 0, rerr
				}
				if tornGroup(rest) {
					sum.TornTail = true
					break
				}
			}
			if err != nil {
				return nil, nil, 0, err
			}
			rec, err := decodeRecord(net, t, body)
			if err != nil {
				return nil, nil, 0, &CorruptError{Offset: tail, Reason: err.Error()}
			}
			if rec != nil {
				st.Apply(rec)
			}
			tail += 8 + 2 + int64(len(body))
			sum.WALRecords++
			sum.RecordsByType[t]++
		}
	}
	st.deriveNextID()
	sum.Demands, sum.NextID, sum.Epoch = len(st.Demands), st.NextID, st.Epoch
	for _, down := range st.LinkDown {
		if down {
			sum.LinksDown++
		}
	}
	for id := range st.Current {
		if _, ok := st.Demands[id]; ok {
			sum.AllocatedDemands++
		}
	}
	return st, sum, tail, nil
}

// readFrom returns the bytes of wal from off to EOF.
func readFrom(wal File, off int64) ([]byte, error) {
	if _, err := wal.Seek(off, io.SeekStart); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	b, err := io.ReadAll(wal)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return b, nil
}

// Restored returns a deep copy of the state recovered by Open. The
// caller owns the copy; later appends do not update it.
func (s *Store) Restored() *State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.restored.clone()
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// WALRecords returns the number of records in the current WAL
// (replayed plus appended since Open or the last Compact).
func (s *Store) WALRecords() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.walRecords
}

// write appends one group of n framed records with one Write and
// (unless NoSync) one fsync. It returns only after the whole group is
// durable, which is what lets the controller ack the client afterwards.
//
// On a failed or short write — or a failed fsync, whose bytes cannot
// be trusted durable — the WAL is truncated back to the last known
// durable tail, where the group began, before the error is returned.
// Without that repair a retried append would land after a partial
// frame, turning a recoverable torn tail into interior corruption that
// replay rejects. If the repair itself fails the store wedges: every
// later append fails fast rather than risk compounding the damage.
func (s *Store) write(group []byte, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if s.wedged {
		return fmt.Errorf("store: wedged after failed tail repair")
	}
	if _, err := s.wal.Write(group); err != nil {
		s.repairTailLocked()
		return fmt.Errorf("store: append %d records: %w", n, err)
	}
	if !s.opts.NoSync {
		if err := s.wal.Sync(); err != nil {
			s.repairTailLocked()
			return fmt.Errorf("store: fsync: %w", err)
		}
		mFsyncs.Inc()
	}
	s.tail += int64(len(group))
	s.walRecords += n
	mAppends.Add(int64(n))
	return nil
}

// repairTailLocked rolls the WAL back to the last durable record
// boundary after a failed append, so the caller can retry safely.
// Requires s.mu.
func (s *Store) repairTailLocked() {
	if err := s.wal.Truncate(s.tail); err != nil {
		s.wedged = true
		s.logf("store: WEDGED: tail repair truncate to %d failed: %v", s.tail, err)
		return
	}
	if _, err := s.wal.Seek(s.tail, io.SeekStart); err != nil {
		s.wedged = true
		s.logf("store: WEDGED: tail repair seek to %d failed: %v", s.tail, err)
		return
	}
	mRepairs.Inc()
	s.logf("store: rolled WAL back to durable tail at %d after failed append", s.tail)
}

// Wedged reports whether a failed tail repair has disabled appends.
func (s *Store) Wedged() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wedged
}

// Append logs a group of state transitions, in order, with one write
// and one fsync: a transition and the broker push it causes cost one
// disk round trip. Each record keeps its own frame, so the WAL holds
// exactly what appending them one by one would. A crash inside the
// write leaves a torn tail: Open truncates it at the group's first
// damaged frame, wherever in the group the lost pages fell.
func (s *Store) Append(rs ...Record) error {
	if len(rs) == 0 {
		return nil
	}
	var group []byte
	for _, r := range rs {
		frame, err := s.frame(r)
		if err != nil {
			return err
		}
		group = append(group, frame...)
	}
	return s.write(group, len(rs))
}

// frame encodes one transition as its WAL record.
func (s *Store) frame(r Record) ([]byte, error) {
	switch r := r.(type) {
	case Admit:
		var db bytes.Buffer
		if err := demand.Save(&db, s.net, []*demand.Demand{r.Demand}); err != nil {
			return nil, fmt.Errorf("store: encode demand %d: %w", r.Demand.ID, err)
		}
		return encodeBody(RecAdmit, &admitBody{Demand: db.Bytes(), Alloc: r.Rows})
	case Withdraw:
		return encodeBody(RecWithdraw, &withdrawBody{ID: r.ID})
	case Link:
		l := s.net.Link(r.ID)
		return encodeBody(RecLink, &linkBody{Src: s.net.NodeName(l.Src), Dst: s.net.NodeName(l.Dst), Up: r.Up})
	case Epoch:
		return encodeBody(RecEpoch, &epochBody{Epoch: r.Epoch})
	case Schedule:
		return encodeBody(RecSchedule, &scheduleBody{Alloc: allocToJSON(r.Alloc)})
	}
	return nil, fmt.Errorf("store: unknown record %T", r)
}

// encodeBody marshals a record body and frames it.
func encodeBody(t RecordType, body interface{}) ([]byte, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return nil, fmt.Errorf("store: marshal %s: %w", t, err)
	}
	return encodeRecord(t, data)
}

// AppendAdmit logs an admitted demand and its admission-time
// allocation rows (nil when the admission method produced none).
func (s *Store) AppendAdmit(d *demand.Demand, rows [][]float64) error {
	return s.Append(Admit{Demand: d, Rows: rows})
}

// AppendWithdraw logs a demand withdrawal.
func (s *Store) AppendWithdraw(id int) error {
	return s.Append(Withdraw{ID: id})
}

// AppendLink logs an observed link state change by DC names, which
// need not name a link of the store's network.
func (s *Store) AppendLink(src, dst string, up bool) error {
	frame, err := encodeBody(RecLink, &linkBody{Src: src, Dst: dst, Up: up})
	if err != nil {
		return err
	}
	return s.write(frame, 1)
}

// AppendEpoch logs an allocation epoch bump.
func (s *Store) AppendEpoch(epoch uint64) error {
	return s.Append(Epoch{Epoch: epoch})
}

// AppendSchedule logs a committed reschedule: the full allocation
// replaces whatever replay built up so far.
func (s *Store) AppendSchedule(a alloc.Allocation) error {
	return s.Append(Schedule{Alloc: a})
}

// Compact atomically replaces the snapshot with st and trims the WAL:
// the snapshot is written to a temporary file, fsynced, renamed over
// snapshot.json, and only then is the log truncated. A crash anywhere
// in between recovers to either the old snapshot + full WAL or the
// new snapshot (+ an ignorable stale WAL suffix replayed on top of
// state it is idempotent over — records reapply the same facts).
func (s *Store) Compact(st *State) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	tmp := filepath.Join(s.dir, snapshotName+".tmp")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := encodeSnapshot(f, s.net, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: fsync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(s.dir, snapshotName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: install snapshot: %w", err)
	}
	syncDir(s.dir)
	if err := s.wal.Truncate(0); err != nil {
		return fmt.Errorf("store: trim WAL: %w", err)
	}
	if _, err := s.wal.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.walRecords = 0
	s.tail = 0
	mCompacts.Inc()
	if !s.opts.NoSync {
		if err := s.wal.Sync(); err != nil {
			return fmt.Errorf("store: fsync: %w", err)
		}
		mFsyncs.Inc()
	}
	return nil
}

// syncDir fsyncs a directory so a rename is durable; best-effort
// (some filesystems refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// Close releases the WAL file handle. Appends after Close fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}

// Summary describes a store directory without opening it for writes;
// batectl store inspect prints it.
type Summary struct {
	Dir              string
	SnapshotBytes    int64 // -1 when no snapshot exists
	SnapshotDemands  int
	WALBytes         int64
	WALRecords       int
	RecordsByType    map[RecordType]int
	TornTail         bool
	Demands          int // demands after full replay
	NextID           int
	Epoch            uint64
	LinksDown        int
	AllocatedDemands int // demands with allocation rows after replay
}

// Inspect reads a store directory read-only and summarizes snapshot,
// WAL and replayed state. A torn tail is reported, not repaired.
func Inspect(dir string, net *topo.Network) (*Summary, error) {
	var wal File
	if f, err := os.Open(filepath.Join(dir, walName)); err == nil {
		defer f.Close()
		wal = f
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("store: %w", err)
	}
	_, sum, _, err := load(dir, net, wal)
	return sum, err
}
