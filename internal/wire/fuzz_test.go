package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// frameBytes encodes m as a single frame.
func frameBytes(t interface{ Fatal(...any) }, m *Message) []byte {
	stored, off, err := encodeFrame(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return stored[off:]
}

// FuzzBinaryFrame drives raw bytes through the frame reader: the magic
// check, version/tag/varint parsing and every per-type body decoder.
// The decoder must never panic, never allocate beyond MaxFrame, and
// always either produce a message or a typed error.
func FuzzBinaryFrame(f *testing.F) {
	for _, m := range allMessages() {
		frame := frameBytes(f, m)
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
	}
	// Non-Paxos types smuggled into a tagJSONMsg body.
	for _, js := range []string{`{"type":"submit","submit":{}}`, `{"type":"withdraw","withdraw_id":1}`, `{"type":"alloc-update","alloc":{}}`} {
		f.Add(append([]byte{binaryMagic, binaryVersion, tagJSONMsg, byte(len(js) + 1), 0}, js...))
	}
	// Truncations and hostile headers.
	ping := frameBytes(f, &Message{Type: TypePing, Seq: 9})
	f.Add(ping[:2])
	f.Add([]byte{binaryMagic})
	f.Add([]byte{binaryMagic, binaryVersion, tagSubmitBatch, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{binaryMagic, 2, tagPing, 0})
	f.Add([]byte{0x00, 0x10, 0x00, 0x01})
	f.Add([]byte("GET / HTTP/1.1\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		c := &Conn{r: bufio.NewReader(bytes.NewReader(data))}
		// A stream may hold several frames; bound the walk.
		for i := 0; i < 64; i++ {
			m, err := c.Recv()
			if err != nil {
				return
			}
			if m == nil {
				t.Fatal("nil message with nil error")
			}
		}
	})
}

// normalize maps empty slices/maps to nil so a round trip compares
// equal to its input: the codec does not preserve the distinction.
func normalize(m *Message) {
	if len(m.SubmitBatch) == 0 {
		m.SubmitBatch = nil
	}
	if len(m.AdmitBatchResult) == 0 {
		m.AdmitBatchResult = nil
	}
	if m.Alloc != nil {
		if len(m.Alloc.Tunnels) == 0 {
			m.Alloc.Tunnels = nil
		}
		for i := range m.Alloc.Tunnels {
			if len(m.Alloc.Tunnels[i].Hops) == 0 {
				m.Alloc.Tunnels[i].Hops = nil
			}
		}
	}
	if m.Stats != nil && len(m.Stats.Rates) == 0 {
		m.Stats.Rates = nil
	}
	if m.Status != nil {
		if len(m.Status.Demands) == 0 {
			m.Status.Demands = nil
		}
		if len(m.Status.Counters) == 0 {
			m.Status.Counters = nil
		}
	}
}

// roundTrip encodes m and decodes it back via the frame reader.
func roundTrip(t *testing.T, m *Message) *Message {
	t.Helper()
	frame := frameBytes(t, m)
	c := &Conn{r: bufio.NewReader(bytes.NewReader(frame))}
	got, err := c.Recv()
	if err != nil {
		t.Fatalf("round trip of %+v: %v", m, err)
	}
	return got
}

// finite replaces NaN with a stand-in, since reflect.DeepEqual never
// finds NaN equal to itself.
func finite(f float64) float64 {
	if math.IsNaN(f) {
		return -1.5
	}
	return f
}

// FuzzCodecRoundTrip checks that any message decodes back to exactly
// the message that was encoded.
func FuzzCodecRoundTrip(f *testing.F) {
	f.Add(uint64(7), 3, "DC1", "DC4", 500.0, 0.999, 10.0, true, uint32(0x1002), uint64(4), 2, "fixed")
	f.Add(uint64(0), 0, "", "", 0.0, 0.0, 0.0, false, uint32(0), uint64(0), 0, "")
	f.Add(uint64(1<<63), -4096, "a\x00b", "\xff\xfe", math.MaxFloat64, -0.0, 1e-308, true, uint32(1<<24), uint64(99), 7, "日本語")
	f.Fuzz(func(t *testing.T, seq uint64, id int, src, dst string, bw, target, rate float64,
		admitted bool, label uint32, epoch uint64, count int, method string) {
		bw, target, rate = finite(bw), finite(target), finite(rate)
		if count < 0 {
			count = -count
		}
		count %= 8
		batch := make([]Submit, 0, count)
		hops := make([]string, 0, count)
		for i := 0; i < count; i++ {
			batch = append(batch, Submit{DemandID: id + i, Src: src, Dst: dst, Bandwidth: bw, Target: target, Charge: rate, RefundFrac: target})
			hops = append(hops, src)
		}
		msgs := []*Message{
			{Type: TypeHello, Seq: seq, Hello: &Hello{Role: src, DC: dst, Codec: Codec(label % 2)}},
			{Type: TypeSubmit, Seq: seq, Submit: &Submit{DemandID: id, Src: src, Dst: dst, Bandwidth: bw, Target: target, Charge: rate, RefundFrac: target}},
			{Type: TypeAdmitResult, Seq: seq, AdmitResult: &AdmitResult{DemandID: id, Admitted: admitted, Method: method, DelayMs: rate}},
			{Type: TypeSubmitBatch, Seq: seq, SubmitBatch: batch},
			{Type: TypeAllocUpdate, Seq: seq, Alloc: &AllocUpdate{Epoch: epoch, Backup: admitted, Tunnels: []TunnelAlloc{{Label: label, Hops: hops, Rate: rate}}}},
			{Type: TypeLinkEvent, Seq: seq, LinkEvent: &LinkEvent{SrcDC: src, DstDC: dst, Up: admitted, AtUnixMs: int64(id), RateMbps: rate}},
			{Type: TypeStats, Seq: seq, Stats: &Stats{DC: src, Rates: map[string]float64{method: rate}}},
			{Type: TypeWithdraw, Seq: seq, WithdrawID: id},
			{Type: TypeError, Seq: seq, Error: method},
			{Type: TypeSubmit, Seq: seq, DeadlineMs: int64(epoch % (1 << 40)), Submit: &Submit{DemandID: id, Src: src, Dst: dst, Bandwidth: bw, Target: target}},
			{Type: TypeRetryAfter, Seq: seq, RetryAfter: &RetryAfter{RetryAfterMs: int64(id), Reason: method}},
			{Type: TypeStatusReply, Seq: seq, Status: &StatusReply{Epoch: epoch, Demands: []DemandStatus{{DemandID: id, Src: src, Dst: dst, Bandwidth: bw, Target: target, Achieved: rate, Allocated: bw}}, Counters: map[string]int64{method: int64(id)}}},
		}
		for _, m := range msgs {
			got := roundTrip(t, m)
			normalize(m)
			normalize(got)
			if !reflect.DeepEqual(got, m) {
				t.Fatalf("round trip diverged for %s:\n got  %#v\n want %#v", m.Type, got, m)
			}
		}
	})
}

// FuzzLabelSplit keeps the 24-bit label packing an exact inverse pair
// under the binary codec's uvarint transport.
func FuzzLabelSplit(f *testing.F) {
	f.Add(uint32(0x1002))
	f.Fuzz(func(t *testing.T, label uint32) {
		label &= 0xffffff
		d, tn := SplitLabel(label)
		back, err := Label(d, tn)
		if err != nil {
			t.Fatalf("Label(%d,%d): %v", d, tn, err)
		}
		if back != label {
			t.Fatalf("label %#x split to (%d,%d) repacked to %#x", label, d, tn, back)
		}
		var buf []byte
		buf = binary.AppendUvarint(buf, uint64(label))
		got, n := binary.Uvarint(buf)
		if n <= 0 || uint32(got) != label {
			t.Fatalf("uvarint transport mangled label %#x", label)
		}
	})
}
