package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"
)

// allMessages returns one populated message per type, covering every
// hand-rolled binary body plus the tagJSONMsg body (Paxos).
func allMessages() []*Message {
	return []*Message{
		{Type: TypeHello, Seq: 1, Hello: &Hello{Role: "broker", DC: "DC2", Codec: CodecBinary}},
		{Type: TypeSubmit, Seq: 2, Submit: &Submit{DemandID: 3, Src: "DC1", Dst: "DC4", Bandwidth: 500, Target: 0.999, Charge: 500, RefundFrac: 0.1}},
		{Type: TypeAdmitResult, Seq: 3, AdmitResult: &AdmitResult{DemandID: 1, Admitted: true, Method: "fixed", DelayMs: 1.5}},
		{Type: TypeSubmitBatch, Seq: 4, SubmitBatch: []Submit{
			{DemandID: 0, Src: "DC1", Dst: "DC2", Bandwidth: 10, Target: 0.9},
			{DemandID: 0, Src: "DC2", Dst: "DC3", Bandwidth: 20, Target: 0.99, Charge: 7, RefundFrac: 0.5},
		}},
		{Type: TypeAdmitBatchResult, Seq: 5, AdmitBatchResult: []AdmitResult{
			{DemandID: 4, Admitted: true, Method: "stub"},
			{DemandID: 0, Admitted: false, Method: "stub", DelayMs: 0.25},
		}},
		{Type: TypeAllocUpdate, Seq: 6, Alloc: &AllocUpdate{Epoch: 4, Backup: true, Tunnels: []TunnelAlloc{
			{Label: 0x1002, Hops: []string{"DC1", "DC2"}, Rate: 100},
			{Label: 0x2003, Hops: []string{"DC1", "DC3", "DC2"}, Rate: 55.5},
		}}},
		{Type: TypeLinkEvent, Seq: 7, LinkEvent: &LinkEvent{SrcDC: "DC1", DstDC: "DC2", Up: false, AtUnixMs: -99, RateMbps: 3.5}},
		{Type: TypeWithdraw, Seq: 8, WithdrawID: 12},
		{Type: TypeStats, Seq: 9, Stats: &Stats{DC: "DC1", Rates: map[string]float64{"t0": 5, "t1": 7.25}}},
		{Type: TypePing, Seq: 10},
		{Type: TypePong, Seq: 11},
		{Type: TypeError, Seq: 12, Error: "boom"},
		{Type: TypeStatus, Seq: 13},
		{Type: TypeStatusReply, Seq: 14, Status: &StatusReply{
			Epoch:   9,
			Demands: []DemandStatus{{DemandID: 2, Src: "DC1", Dst: "DC2", Bandwidth: 100, Target: 0.99, Achieved: 0.995, Allocated: 100}},
			Counters: map[string]int64{
				"admission.total": 42,
			},
		}},
		{Type: TypePaxos, Seq: 15, Paxos: &PaxosMsg{Kind: 2, From: 1, To: 0, BallotRound: 7, BallotNode: 1, Value: "leader"}},
		// Nil payloads must survive a round trip as nil (presence flag).
		{Type: TypeSubmit, Seq: 16},
		{Type: TypeAllocUpdate, Seq: 17, Alloc: &AllocUpdate{Epoch: 1}},
		{Type: TypeRetryAfter, Seq: 18, RetryAfter: &RetryAfter{RetryAfterMs: 150, Reason: "queue-full"}},
		{Type: TypeRetryAfter, Seq: 19},
		// Deadline-carrying frames ride header version 2.
		{Type: TypeSubmit, Seq: 20, DeadlineMs: 250, Submit: &Submit{DemandID: 5, Src: "DC1", Dst: "DC2", Bandwidth: 10, Target: 0.99}},
		{Type: TypeStatus, Seq: 21, DeadlineMs: 40},
	}
}

func TestBinaryAllTypesRoundTrip(t *testing.T) {
	ca, cb := pipePair(t)
	msgs := allMessages()
	go func() {
		for _, m := range msgs {
			if err := ca.Send(m); err != nil {
				t.Errorf("send %s: %v", m.Type, err)
				return
			}
		}
	}()
	for _, want := range msgs {
		got, err := cb.Recv()
		if err != nil {
			t.Fatalf("recv %s: %v", want.Type, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("type %s:\n got  %+v\n want %+v", want.Type, got, want)
		}
	}
}

func TestBadMagicTypedError(t *testing.T) {
	for name, raw := range map[string][]byte{
		"http": []byte("GET / HTTP/1.1\r\n"),
		// A JSON frame: 4-byte big-endian length prefix, then the body.
		"json": append([]byte{0, 0, 0, 27}, `{"type":"hello","hello":{}}`...),
	} {
		c := &Conn{r: bufio.NewReader(bytes.NewReader(raw))}
		if _, err := c.Recv(); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: err = %v, want ErrBadMagic", name, err)
		}
	}
}

// TestJSONBodyOnlyForPaxos: a tagJSONMsg body decodes only as a Paxos
// message. Any other type wrapped in it fails with ErrBadFrame, so a
// peer cannot submit, withdraw or push allocations as JSON.
func TestJSONBodyOnlyForPaxos(t *testing.T) {
	for _, tc := range []struct {
		json string
		ok   bool
	}{
		{`{"type":"submit","submit":{"src_dc":"DC1","dst_dc":"DC2","bandwidth_mbps":10,"target":0.9}}`, false},
		{`{"type":"withdraw","withdraw_id":3}`, false},
		{`{"type":"alloc-update","alloc":{"epoch":9,"tunnels":[{"label":4098,"hops":["DC1","DC2"],"rate_mbps":5}]}}`, false},
		{`{"type":"paxos","paxos":{"kind":1,"from":2,"ballot_round":3}}`, true},
	} {
		body := append(binary.AppendUvarint(nil, 5), tc.json...)
		frame := append([]byte{binaryMagic, binaryVersion, tagJSONMsg}, byte(len(body)))
		frame = append(frame, body...)
		c := &Conn{r: bufio.NewReader(bytes.NewReader(frame))}
		m, err := c.Recv()
		if !tc.ok {
			if !errors.Is(err, ErrBadFrame) {
				t.Errorf("%s: err = %v, want ErrBadFrame", tc.json, err)
			}
			continue
		}
		if err != nil || m.Type != TypePaxos || m.Seq != 5 || m.Paxos == nil || m.Paxos.From != 2 {
			t.Errorf("%s: got %+v, %v", tc.json, m, err)
		}
	}
}

func TestUnknownTypeSendRejected(t *testing.T) {
	if _, _, err := encodeFrame(nil, &Message{Type: "future"}); err == nil {
		t.Fatal("a type with no encoding was framed")
	}
}

func TestBadVersionTypedError(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	ca := New(a)
	go b.Write([]byte{binaryMagic, 99, tagPing, 0})
	_, err := ca.Recv()
	if !errors.Is(err, ErrBadVersion) {
		t.Fatalf("err = %v, want ErrBadVersion", err)
	}
}

func TestOversizeTypedErrors(t *testing.T) {
	// A header declaring a body beyond MaxFrame fails Recv without
	// attempting the allocation.
	a, b := net.Pipe()
	defer a.Close()
	ca := New(a)
	go func() {
		frame := []byte{binaryMagic, binaryVersion, tagPing}
		frame = binary.AppendUvarint(frame, MaxFrame+1)
		b.Write(frame)
	}()
	if _, err := ca.Recv(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestShortReadTypedError(t *testing.T) {
	a, b := net.Pipe()
	ca := New(a)
	ca.SetIdleTimeout(50 * time.Millisecond)
	go func() {
		frame := []byte{binaryMagic, binaryVersion, tagError}
		frame = binary.AppendUvarint(frame, 100) // promises 100 bytes...
		frame = append(frame, "only-a-few"...)   // ...delivers 10, then dies
		b.Write(frame)
		b.Close()
	}()
	_, err := ca.Recv()
	if !errors.Is(err, ErrShortRead) {
		t.Fatalf("err = %v, want ErrShortRead", err)
	}
	a.Close()
}

func TestBinaryTruncatedFrameTimesOut(t *testing.T) {
	// A peer that sends a header plus part of the body and then goes
	// silent (the chaos layer stalls peers mid-frame) must not block
	// the reader forever once an idle timeout is set: the controller
	// sets one on every session.
	a, b := net.Pipe()
	defer a.Close()
	ca := New(a)
	ca.SetIdleTimeout(50 * time.Millisecond)
	go func() {
		frame := []byte{binaryMagic, binaryVersion, tagError}
		frame = binary.AppendUvarint(frame, 100)
		frame = append(frame, "partial"...)
		b.Write(frame) // ...then stalls with the conn open
	}()
	done := make(chan error, 1)
	go func() {
		_, err := ca.Recv()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrShortRead) {
			t.Fatalf("err = %v, want ErrShortRead", err)
		}
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			t.Fatalf("err = %v, want to wrap a net timeout", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv blocked on a half-written binary frame")
	}
}

func TestBinaryGarbageBodyTypedError(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	ca := New(a)
	go func() {
		// Valid header, body too short for the submit it declares.
		body := []byte{7, 1} // seq=7, present=true, then nothing
		frame := []byte{binaryMagic, binaryVersion, tagSubmit}
		frame = binary.AppendUvarint(frame, uint64(len(body)))
		frame = append(frame, body...)
		b.Write(frame)
	}()
	_, err := ca.Recv()
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("err = %v, want ErrBadFrame", err)
	}
}

func TestCoalescedPipelinedSends(t *testing.T) {
	ca, cb := pipePair(t)
	ca.EnableCoalescing()
	const n = 500
	go func() {
		for i := 0; i < n; i++ {
			if err := ca.Send(&Message{Type: TypePing, Seq: uint64(i)}); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		m, err := cb.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if m.Seq != uint64(i) {
			t.Fatalf("frame %d arrived out of order (seq %d)", i, m.Seq)
		}
	}
}

func TestCoalescedCloseFlushesQueuedFrames(t *testing.T) {
	a, b := net.Pipe()
	ca, cb := New(a), New(b)
	defer cb.Close()
	ca.EnableCoalescing()
	recvd := make(chan *Message, 1)
	go func() {
		m, err := cb.Recv()
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		recvd <- m
	}()
	if err := ca.Send(&Message{Type: TypePing, Seq: 77}); err != nil {
		t.Fatal(err)
	}
	ca.Close() // must drain the queue before closing the socket
	select {
	case m := <-recvd:
		if m.Seq != 77 {
			t.Fatalf("got %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("queued frame dropped by Close")
	}
}

func TestCoalescedConcurrentSenders(t *testing.T) {
	ca, cb := pipePair(t)
	ca.EnableCoalescing()
	const n = 100
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ca.Send(&Message{Type: TypePing, Seq: uint64(i)})
		}(i)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		m, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if seen[m.Seq] {
			t.Fatalf("duplicate seq %d (frame corruption)", m.Seq)
		}
		seen[m.Seq] = true
	}
	wg.Wait()
}

func TestCoalescedStickyWriteError(t *testing.T) {
	a, b := net.Pipe()
	ca := New(a)
	ca.EnableCoalescing()
	b.Close() // peer gone: writes will fail
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := ca.Send(&Message{Type: TypePing}); err != nil {
			ca.Close()
			return // sticky error surfaced on a later Send, as documented
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("send kept succeeding against a closed peer")
}

func TestBinaryOversizeSendRejected(t *testing.T) {
	ca, cb := pipePair(t)
	go cb.Recv()
	big := make([]byte, MaxFrame)
	for i := range big {
		big[i] = 'x'
	}
	err := ca.Send(&Message{Type: TypeError, Error: string(big)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestDecodeIgnoresTrailingBytes(t *testing.T) {
	// Forward compatibility: a newer peer may append fields to a body.
	body := binary.AppendUvarint(nil, 42) // seq
	body = binary.AppendVarint(body, 7)   // withdraw id
	body = append(body, 0xde, 0xad)       // future fields
	m, err := decodeBinaryBody(tagWithdraw, binaryVersion, body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeWithdraw || m.Seq != 42 || m.WithdrawID != 7 {
		t.Fatalf("got %+v", m)
	}
}

func TestBinaryFrameReadsFromRawBytes(t *testing.T) {
	// Lock the layout down: a frame is [magic][version][tag][uvarint
	// len][body], byte for byte. If this test breaks, the protocol
	// version must be bumped.
	bp := getBuf()
	stored, off, err := encodeFrame((*bp)[:0], &Message{Type: TypePing, Seq: 300})
	if err != nil {
		t.Fatal(err)
	}
	frame := stored[off:]
	wantBody := binary.AppendUvarint(nil, 300)
	want := []byte{binaryMagic, binaryVersion, tagPing}
	want = binary.AppendUvarint(want, uint64(len(wantBody)))
	want = append(want, wantBody...)
	if !bytes.Equal(frame, want) {
		t.Fatalf("frame layout changed:\n got  %x\n want %x", frame, want)
	}
	// And it must decode back through a reader.
	c := &Conn{r: bufio.NewReader(bytes.NewReader(frame))}
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypePing || m.Seq != 300 {
		t.Fatalf("got %+v", m)
	}
}
