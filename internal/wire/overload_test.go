package wire

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"strings"
	"testing"
	"time"
)

// TestDeadlinePromotesHeaderVersion pins the wire layout: a frame
// without a deadline stays header version 1 byte-for-byte, a frame
// with one is version 2 and carries the deadline between Seq and the
// payload.
func TestDeadlinePromotesHeaderVersion(t *testing.T) {
	plain := frameBytes(t, &Message{Type: TypeStatus, Seq: 3})
	if plain[1] != binaryVersion {
		t.Fatalf("no-deadline frame version = %d, want %d", plain[1], binaryVersion)
	}
	dl := frameBytes(t, &Message{Type: TypeStatus, Seq: 3, DeadlineMs: 40})
	if dl[1] != binaryVersionDeadline {
		t.Fatalf("deadline frame version = %d, want %d", dl[1], binaryVersionDeadline)
	}
	// [magic][ver][tag][len=2][seq=3][deadline=40]
	want := []byte{binaryMagic, binaryVersionDeadline, tagStatus, 2, 3, 40}
	if !bytes.Equal(dl, want) {
		t.Fatalf("deadline frame = %#v, want %#v", dl, want)
	}
}

// TestDeadlineRoundTripBothCodecs checks a deadline survives both
// body encodings a binary frame carries: a hand-rolled body (header
// version 2) and the Paxos JSON body.
func TestDeadlineRoundTripBothCodecs(t *testing.T) {
	m := &Message{Type: TypeSubmit, Seq: 9, DeadlineMs: 125,
		Submit: &Submit{DemandID: 1, Src: "DC1", Dst: "DC2", Bandwidth: 10, Target: 0.99}}
	got := roundTrip(t, m)
	if got.DeadlineMs != 125 {
		t.Fatalf("deadline = %d, want 125", got.DeadlineMs)
	}
	if got.Submit == nil || got.Submit.DemandID != 1 {
		t.Fatalf("payload lost: %+v", got)
	}
	// Paxos rides the tagJSONMsg body; its deadline travels inside the
	// embedded JSON under header version 1.
	pm := &Message{Type: TypePaxos, Seq: 2, DeadlineMs: 30, Paxos: &PaxosMsg{Kind: 1, From: 1}}
	frame := frameBytes(t, pm)
	if frame[1] != binaryVersion {
		t.Fatalf("json-body frame version = %d, want %d", frame[1], binaryVersion)
	}
	if got := roundTrip(t, pm); got.DeadlineMs != 30 {
		t.Fatalf("json-body deadline = %d, want 30", got.DeadlineMs)
	}
}

// TestRetryAfterRoundTrip covers the typed overload reject, including
// the nil-payload presence flag.
func TestRetryAfterRoundTrip(t *testing.T) {
	for _, m := range []*Message{
		{Type: TypeRetryAfter, Seq: 4, RetryAfter: &RetryAfter{RetryAfterMs: 200, Reason: "queue-timeout"}},
		{Type: TypeRetryAfter, Seq: 5},
	} {
		got := roundTrip(t, m)
		if got.Type != TypeRetryAfter || got.Seq != m.Seq {
			t.Fatalf("envelope %+v", got)
		}
		if (got.RetryAfter == nil) != (m.RetryAfter == nil) {
			t.Fatalf("presence flag lost: %+v", got)
		}
		if m.RetryAfter != nil && *got.RetryAfter != *m.RetryAfter {
			t.Fatalf("payload = %+v, want %+v", got.RetryAfter, m.RetryAfter)
		}
	}
}

// TestCoalescedOversizeSendSurfaces: satellite requirement — an
// encode-side ErrFrameTooLarge must come back from Send synchronously
// even in coalescing mode, not vanish into the async writer.
func TestCoalescedOversizeSendSurfaces(t *testing.T) {
	ca, cb := pipePair(t)
	ca.EnableCoalescing()
	go func() { // keep the writer drained so the queue is not the cause
		for {
			if _, err := cb.Recv(); err != nil {
				return
			}
		}
	}()
	err := ca.Send(&Message{Type: TypeError, Seq: 1, Error: strings.Repeat("x", MaxFrame+1)})
	if !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("coalesced oversize send err = %v, want ErrFrameTooLarge", err)
	}
	// The connection is still usable: the oversize frame never entered
	// the queue.
	if err := ca.Send(&Message{Type: TypePing, Seq: 2}); err != nil {
		t.Fatalf("send after oversize reject: %v", err)
	}
}

// TestCoalescedBadFrameSurfaces: a malformed inbound frame still
// yields ErrBadFrame from Recv while the connection is in coalescing
// mode, and the sender of the garbage learns about it via the
// receiver's typed error reply instead of silence.
func TestCoalescedBadFrameSurfaces(t *testing.T) {
	ca, cb := pipePair(t)
	ca.EnableCoalescing()
	cb.EnableCoalescing()
	// A binary frame whose declared body is one byte of garbage for
	// tagSubmit (presence flag true, then nothing).
	go func() {
		raw := []byte{binaryMagic, binaryVersion, tagSubmit, 2, 0 /*seq*/, 1 /*present*/}
		nc := ca.nc
		nc.Write(raw)
	}()
	_, err := cb.Recv()
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("recv err = %v, want ErrBadFrame", err)
	}
	// The receiver can still send an explicit error frame back through
	// its coalescing writer — the reject path stays open.
	if err := cb.Send(&Message{Type: TypeError, Error: "bad frame"}); err != nil {
		t.Fatalf("error reply after bad frame: %v", err)
	}
	reply, err := ca.Recv()
	if err != nil || reply.Type != TypeError {
		t.Fatalf("sender never saw the typed error: %v %+v", err, reply)
	}
}

// TestEnqueueBoundRejectsSlowPeer: a peer that stops draining fails
// Send with ErrSendQueueFull within the enqueue grace instead of
// pinning buffers until Close, and the error is sticky.
func TestEnqueueBoundRejectsSlowPeer(t *testing.T) {
	a, b := net.Pipe()
	ca := New(a)
	defer b.Close()
	ca.SetEnqueueGrace(5 * time.Millisecond)
	ca.EnableCoalescing()
	// Nobody reads from b: the writer wedges on the pipe, the queue
	// fills, and Send must fail within the bounded grace.
	var sawFull bool
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; i < SendQueueDepth+10_000 && time.Now().Before(deadline); i++ {
		if err := ca.Send(&Message{Type: TypePing, Seq: uint64(i)}); err != nil {
			if !errors.Is(err, ErrSendQueueFull) {
				t.Fatalf("send err = %v, want ErrSendQueueFull", err)
			}
			sawFull = true
			break
		}
	}
	if !sawFull {
		t.Fatal("queue never reported full against a wedged peer")
	}
	// Sticky: the very next Send fails immediately with the same error.
	t0 := time.Now()
	if err := ca.Send(&Message{Type: TypePing, Seq: 999}); !errors.Is(err, ErrSendQueueFull) {
		t.Fatalf("second send err = %v, want sticky ErrSendQueueFull", err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Fatalf("sticky reject took %v, want immediate", d)
	}
	// Close still returns; the wedged writer is cut loose by the
	// bounded drain grace.
	done := make(chan struct{})
	go func() { ca.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a wedged coalescing writer")
	}
}

// TestV2FrameFromRawBytes proves an independently constructed v2
// frame decodes, so the version check is about capability, not an
// exact-match lockstep.
func TestV2FrameFromRawBytes(t *testing.T) {
	frame := []byte{binaryMagic, binaryVersionDeadline, tagWithdraw, 4, 7 /*seq*/, 99 /*deadline*/, 2 /*id zigzag(1)*/, 0xde}
	c := &Conn{r: bufio.NewReader(bytes.NewReader(frame))}
	m, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != TypeWithdraw || m.Seq != 7 || m.DeadlineMs != 99 || m.WithdrawID != 1 {
		t.Fatalf("decoded %+v", m)
	}
	// Version 3 is still rejected.
	bad := []byte{binaryMagic, 3, tagPing, 1, 0}
	c = &Conn{r: bufio.NewReader(bytes.NewReader(bad))}
	if _, err := c.Recv(); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("v3 err = %v, want ErrBadVersion", err)
	}
}
