// Package store is the controller's durable state store (§4): a
// write-ahead log of every mutating transition plus periodic
// snapshots, so a crashed master — or a standby promoted by the Paxos
// election — reopens with the full demand book, current allocation,
// link-down set and epoch instead of an empty brain.
//
// Layout of a store directory:
//
//	snapshot.json   last compacted state (see snapshot.go)
//	wal.log         records appended since that snapshot
//
// Recovery replays snapshot + WAL tail. A torn final record (the
// kill -9 case: the process died mid-append) is truncated away; a
// corrupt interior record is a hard *CorruptError, because silently
// skipping it would replay a different history than was acked.
package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"

	"bate/internal/demand"
	"bate/internal/topo"
)

// recordVersion is the WAL record format version. Bump when the
// payload encoding changes; replay rejects versions from the future.
const recordVersion = 1

// MaxRecord bounds a single WAL record payload (8 MiB). A length
// prefix beyond this is treated as corruption (or a torn tail when it
// runs past EOF), never allocated.
const MaxRecord = 8 << 20

// RecordType discriminates WAL records.
type RecordType uint8

// The mutating transitions the controller logs. Values are part of
// the on-disk format; append only.
const (
	RecAdmit    RecordType = 1 // demand admitted (demand + its allocation rows)
	RecWithdraw RecordType = 2 // demand withdrawn
	RecLink     RecordType = 3 // link up/down observed
	RecEpoch    RecordType = 4 // allocation epoch bump (push to brokers)
	RecSchedule RecordType = 5 // periodic reschedule committed (full allocation)
)

func (t RecordType) String() string {
	switch t {
	case RecAdmit:
		return "admit"
	case RecWithdraw:
		return "withdraw"
	case RecLink:
		return "link"
	case RecEpoch:
		return "epoch"
	case RecSchedule:
		return "schedule"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// CorruptError reports a WAL record whose envelope or checksum is
// invalid at a non-tail position. Recovery must not proceed past it:
// the acked history after this point cannot be reconstructed.
type CorruptError struct {
	Offset int64  // byte offset of the bad record's header
	Reason string // what failed (checksum, version, type, length)

	// damaged marks a frame whose length or checksum fails, which is
	// what a page lost in a crash leaves; load then asks tornGroup
	// whether the frame lies in the group the crash interrupted.
	damaged bool
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: corrupt WAL record at offset %d: %s", e.Offset, e.Reason)
}

// Record bodies. Demands ride in the demand.Save JSON encoding (a
// one-element array) so the WAL inherits the workload format's
// name-based node references and its validation.

type admitBody struct {
	// Demand is a demand.Save array holding exactly the admitted demand.
	Demand json.RawMessage `json:"demand"`
	// Alloc is the admission-time allocation rows for the demand
	// (pair index -> tunnel index -> Mbps), when the admission method
	// produced one.
	Alloc [][]float64 `json:"alloc,omitempty"`
}

type withdrawBody struct {
	ID int `json:"id"`
}

type linkBody struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	Up  bool   `json:"up"`
}

type epochBody struct {
	Epoch uint64 `json:"epoch"`
}

type scheduleBody struct {
	// Alloc is the full committed allocation, demand id -> pair ->
	// tunnel -> Mbps (string keys: JSON object keys).
	Alloc map[string][][]float64 `json:"alloc"`
}

// decodeRecord parses one WAL record body into the transition it
// logged. A link record naming DCs the topology does not have decodes
// to nil (topology drift between runs is tolerated); every other
// decoding failure is an error the caller reports as corruption.
func decodeRecord(net *topo.Network, t RecordType, body []byte) (Record, error) {
	switch t {
	case RecAdmit:
		var b admitBody
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		ds, err := demand.Load(bytes.NewReader(b.Demand), net)
		if err != nil {
			return nil, err
		}
		if len(ds) != 1 {
			return nil, fmt.Errorf("admit record holds %d demands, want 1", len(ds))
		}
		return Admit{Demand: ds[0], Rows: b.Alloc}, nil
	case RecWithdraw:
		var b withdrawBody
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		return Withdraw{ID: b.ID}, nil
	case RecLink:
		var b linkBody
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		id, ok := linkByNames(net, b.Src, b.Dst)
		if !ok {
			return nil, nil
		}
		return Link{ID: id, Up: b.Up}, nil
	case RecEpoch:
		var b epochBody
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		return Epoch{Epoch: b.Epoch}, nil
	case RecSchedule:
		var b scheduleBody
		if err := json.Unmarshal(body, &b); err != nil {
			return nil, err
		}
		a, err := allocFromJSON(b.Alloc)
		if err != nil {
			return nil, err
		}
		return Schedule{Alloc: a}, nil
	}
	return nil, fmt.Errorf("unknown record type %d", uint8(t))
}

// encodeRecord frames one record: 4-byte big-endian payload length,
// 4-byte big-endian IEEE CRC32 of the payload, then the payload
// ([version][type][JSON body]).
func encodeRecord(t RecordType, body []byte) ([]byte, error) {
	payload := make([]byte, 0, 2+len(body))
	payload = append(payload, recordVersion, byte(t))
	payload = append(payload, body...)
	if len(payload) > MaxRecord {
		return nil, fmt.Errorf("store: record of %d bytes exceeds max %d", len(payload), MaxRecord)
	}
	frame := make([]byte, 8+len(payload))
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	return frame, nil
}

// errTorn marks a record that ends past EOF or fails its checksum at
// the very end of the log: the signature of a crash mid-append, safe
// to truncate away because it was never acked.
var errTorn = fmt.Errorf("store: torn tail record")

// readRecord reads one framed record. It returns errTorn when the
// log ends inside the record, a *CorruptError for an invalid interior
// record, and io.EOF exactly at a clean record boundary. remaining is
// the number of unread bytes after this record's declared end, so the
// caller can distinguish tail corruption (remaining == 0: torn, was
// never acked to anyone... unless fsynced, in which case the CRC would
// match) from interior corruption.
func readRecord(r *bufio.Reader, offset, size int64) (t RecordType, body []byte, err error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return 0, nil, errTorn // partial header at EOF
		}
		return 0, nil, err
	}
	n := int64(binary.BigEndian.Uint32(hdr[0:4]))
	want := binary.BigEndian.Uint32(hdr[4:8])
	if n < 2 || n > MaxRecord {
		if offset+8+n > size {
			// Declared end runs past EOF: indistinguishable from a torn
			// length prefix.
			return 0, nil, errTorn
		}
		return 0, nil, &CorruptError{Offset: offset, Reason: fmt.Sprintf("bad length %d", n), damaged: true}
	}
	if offset+8+n > size {
		return 0, nil, errTorn
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, errTorn
	}
	if crc32.ChecksumIEEE(payload) != want {
		if offset+8+n == size {
			// Checksum failure on the final record: a partially flushed
			// page from the fatal crash, not interior rot.
			return 0, nil, errTorn
		}
		return 0, nil, &CorruptError{Offset: offset, Reason: "checksum mismatch", damaged: true}
	}
	if payload[0] != recordVersion {
		return 0, nil, &CorruptError{Offset: offset, Reason: fmt.Sprintf("unknown record version %d", payload[0])}
	}
	t = RecordType(payload[1])
	if t < RecAdmit || t > RecSchedule {
		return 0, nil, &CorruptError{Offset: offset, Reason: fmt.Sprintf("unknown record type %d", uint8(t))}
	}
	return t, payload[2:], nil
}

// tornGroup reports whether rest — the log from a damaged frame to EOF
// — is the tail of a group whose write a crash interrupted. The group's
// frames reach the disk with one fsync, so the crash may have kept any
// subset of its pages, not just a prefix: an admit frame can fail its
// checksum while the epoch frame written after it is whole. The
// controller ends every multi-record group with its push's Epoch record,
// so a damaged frame lies in the interrupted group when no whole Epoch
// frame follows it except one that ends the log. A whole non-epoch
// frame ending the log means the damage is not a crash inside a group.
//
// The trade: damage inside the final group, or in the Epoch frame that
// closes the group before it, reads as a torn tail and is truncated,
// not reported as corruption. Anywhere earlier, a whole Epoch frame
// follows the damage and Open still fails with a *CorruptError.
//
// The scan resynchronises byte by byte past damaged bytes: a frame
// header cannot occur inside a JSON body (it starts with a zero byte),
// and the CRC rejects stray matches in garbage.
func tornGroup(rest []byte) bool {
	for off := 1; off < len(rest); {
		n, t, ok := wholeFrame(rest[off:])
		if !ok {
			off++
			continue
		}
		off += n
		if t == RecEpoch || off == len(rest) {
			return t == RecEpoch && off == len(rest)
		}
	}
	return true
}

// wholeFrame reports the size and type of the valid frame at the start
// of b, if there is one.
func wholeFrame(b []byte) (size int, t RecordType, ok bool) {
	if len(b) < 10 {
		return 0, 0, false
	}
	n := int(binary.BigEndian.Uint32(b[0:4]))
	if n < 2 || n > MaxRecord || 8+n > len(b) {
		return 0, 0, false
	}
	payload := b[8 : 8+n]
	t = RecordType(payload[1])
	if payload[0] != recordVersion || t < RecAdmit || t > RecSchedule ||
		crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(b[4:8]) {
		return 0, 0, false
	}
	return 8 + n, t, true
}
