package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"bate/internal/chaos"
	"bate/internal/demand"
	"bate/internal/topo"
)

// FuzzWALRecord throws arbitrary bytes at the WAL record parser: it
// must never panic, must classify every stream as clean / torn /
// corrupt, and on valid records must round-trip through encodeRecord
// byte-for-byte. CI runs this as a short -fuzz smoke on every push.
func FuzzWALRecord(f *testing.F) {
	n := topo.Testbed()
	// Seed corpus: one valid record of each type, a concatenation, and
	// classic mutations.
	var db bytes.Buffer
	d := &demand.Demand{ID: 1, Target: 0.99,
		Pairs: []demand.PairDemand{{Src: 0, Dst: 2, Bandwidth: 400}}}
	if err := demand.Save(&db, n, []*demand.Demand{d}); err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{}
	admit, _ := encodeRecord(RecAdmit, []byte(`{"demand":`+db.String()+`,"alloc":[[400,0]]}`))
	withdraw, _ := encodeRecord(RecWithdraw, []byte(`{"id":1}`))
	link, _ := encodeRecord(RecLink, []byte(`{"src":"DC1","dst":"DC4","up":false}`))
	epoch, _ := encodeRecord(RecEpoch, []byte(`{"epoch":12}`))
	sched, _ := encodeRecord(RecSchedule, []byte(`{"alloc":{"1":[[100,300]]}}`))
	seeds = append(seeds, admit, withdraw, link, epoch, sched,
		append(append([]byte{}, admit...), withdraw...), // two records
		admit[:len(admit)-3],                            // torn tail
		flipLastByte(admit),                             // checksum mismatch
		[]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},      // absurd length
		[]byte{})
	// Chaos-generated crash shapes: the deterministic torn/short-write
	// streams the fault injector produces on disk (torn tails, partial
	// frame then retry, zeroed tails, interior flips, doubled records).
	for _, seed := range []int64{1, 7, 42} {
		seeds = append(seeds, chaos.TornWALArtifacts(seed, [][]byte{admit, withdraw, link, epoch, sched})...)
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tornGroup(data) // the replay's torn-group scan must never panic either
		size := int64(len(data))
		r := bufio.NewReader(bytes.NewReader(data))
		offset := int64(0)
		for {
			rt, body, err := readRecord(r, offset, size)
			if err == io.EOF || err == errTorn {
				return
			}
			if err != nil {
				var ce *CorruptError
				if !errors.As(err, &ce) {
					t.Fatalf("parser returned untyped error %v", err)
				}
				return
			}
			// A record the parser accepted must re-encode to the exact
			// bytes it was read from.
			reenc, err := encodeRecord(rt, body)
			if err != nil {
				t.Fatalf("re-encode of accepted record: %v", err)
			}
			end := offset + int64(len(reenc))
			if end > size || !bytes.Equal(reenc, data[offset:end]) {
				t.Fatalf("record at %d does not round-trip", offset)
			}
			// Decoding and applying an accepted record must never panic;
			// decode failures (valid frame, junk JSON) surface as errors.
			if rec, err := decodeRecord(n, rt, body); err == nil && rec != nil {
				NewState().Apply(rec)
			}
			offset = end
		}
	})
}

// FuzzWALRecordLength pins the frame layout: the length prefix is
// payload-only and big-endian (a regression here silently corrupts
// every store on upgrade).
func FuzzWALRecordLength(f *testing.F) {
	f.Add([]byte(`{"id":3}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		frame, err := encodeRecord(RecWithdraw, body)
		if err != nil {
			if len(body)+2 <= MaxRecord {
				t.Fatalf("encode refused a legal body: %v", err)
			}
			return
		}
		if got := binary.BigEndian.Uint32(frame[0:4]); int(got) != len(body)+2 {
			t.Fatalf("length prefix %d, want %d", got, len(body)+2)
		}
	})
}
