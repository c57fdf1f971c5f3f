package wire

import (
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := New(a), New(b)
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return ca, cb
}

func TestRoundTrip(t *testing.T) {
	ca, cb := pipePair(t)
	want := &Message{
		Type: TypeSubmit,
		Seq:  7,
		Submit: &Submit{
			DemandID: 3, Src: "DC1", Dst: "DC4",
			Bandwidth: 500, Target: 0.999, Charge: 500, RefundFrac: 0.1,
		},
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := ca.Send(want); err != nil {
			t.Errorf("send: %v", err)
		}
	}()
	got, err := cb.Recv()
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != want.Type || got.Seq != 7 || got.Submit == nil ||
		got.Submit.Bandwidth != 500 || got.Submit.Src != "DC1" {
		t.Fatalf("got %+v", got)
	}
}

func TestAllTypesRoundTrip(t *testing.T) {
	ca, cb := pipePair(t)
	msgs := []*Message{
		{Type: TypeHello, Hello: &Hello{Role: "broker", DC: "DC2"}},
		{Type: TypeAdmitResult, AdmitResult: &AdmitResult{DemandID: 1, Admitted: true, Method: "fixed", DelayMs: 1.5}},
		{Type: TypeAllocUpdate, Alloc: &AllocUpdate{Epoch: 4, Tunnels: []TunnelAlloc{{Label: 0x1002, Hops: []string{"DC1", "DC2"}, Rate: 100}}}},
		{Type: TypeLinkEvent, LinkEvent: &LinkEvent{SrcDC: "DC1", DstDC: "DC2", Up: false, AtUnixMs: 99}},
		{Type: TypeStats, Stats: &Stats{DC: "DC1", Rates: map[string]float64{"t0": 5}}},
		{Type: TypeWithdraw, WithdrawID: 12},
		{Type: TypePing},
		{Type: TypeError, Error: "boom"},
	}
	go func() {
		for _, m := range msgs {
			if err := ca.Send(m); err != nil {
				t.Errorf("send: %v", err)
				return
			}
		}
	}()
	for _, want := range msgs {
		got, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type {
			t.Fatalf("got type %s, want %s", got.Type, want.Type)
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	ca, cb := pipePair(t)
	const n = 50
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

func TestOverTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan *Message, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		c := New(nc)
		defer c.Close()
		m, err := c.Recv()
		if err != nil {
			return
		}
		c.Send(&Message{Type: TypePong, Seq: m.Seq})
		done <- m
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Send(&Message{Type: TypePing, Seq: 42}); err != nil {
		t.Fatal(err)
	}
	reply, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != TypePong || reply.Seq != 42 {
		t.Fatalf("reply %+v", reply)
	}
	select {
	case m := <-done:
		if m.Seq != 42 {
			t.Fatal("server saw wrong message")
		}
	case <-time.After(time.Second):
		t.Fatal("server never received")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	ca, cb := pipePair(t)
	go cb.Recv() // keep the pipe drained if the send partially goes out
	big := strings.Repeat("x", MaxFrame)
	err := ca.Send(&Message{Type: TypeError, Error: big})
	if err == nil {
		t.Fatal("expected oversize error")
	}
}

func TestIdleTimeoutAllowsIdleConnections(t *testing.T) {
	// The deadline bounds frame *completion*, not the wait between
	// frames: a connection idle far past the timeout still delivers
	// the next message.
	a, b := net.Pipe()
	defer a.Close()
	ca, cb := New(a), New(b)
	defer cb.Close()
	ca.SetIdleTimeout(30 * time.Millisecond)
	go func() {
		time.Sleep(120 * time.Millisecond) // 4x the idle timeout
		cb.Send(&Message{Type: TypePing, Seq: 9})
	}()
	m, err := ca.Recv()
	if err != nil {
		t.Fatalf("idle connection killed by frame timeout: %v", err)
	}
	if m.Type != TypePing || m.Seq != 9 {
		t.Fatalf("got %+v", m)
	}
}

func TestCloseIdempotent(t *testing.T) {
	ca, _ := pipePair(t)
	if err := ca.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ca.Close(); err != nil {
		t.Fatal("second close should be nil")
	}
}

func TestLabelRoundTrip(t *testing.T) {
	f := func(d, tn uint16) bool {
		di, ti := int(d%4096), int(tn%4096)
		l, err := Label(di, ti)
		if err != nil {
			return false
		}
		gd, gt := SplitLabel(l)
		return gd == di && gt == ti
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Label(4096, 0); err == nil {
		t.Fatal("demand id over 12 bits must fail")
	}
	if _, err := Label(0, -1); err == nil {
		t.Fatal("negative tunnel id must fail")
	}
}
