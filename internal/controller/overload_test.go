package controller

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"bate/internal/metrics"
	"bate/internal/overload"
	"bate/internal/routing"
	"bate/internal/topo"
	"bate/internal/wire"
)

// stubAdmission puts c on solver-free admission (the stubWork seam)
// whose every submit, or coalesced batch, costs work outside the lock.
func stubAdmission(c *Controller, work time.Duration) {
	c.stubWork = func() { time.Sleep(work) }
}

// startOverloaded launches a controller with a tight admission gate
// and stub admission, returning its address.
func startOverloaded(t *testing.T, opts overload.Options, stubWork time.Duration) (*Controller, string, context.CancelFunc) {
	t.Helper()
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent, Overload: &opts})
	if err != nil {
		t.Fatal(err)
	}
	stubAdmission(ctrl, stubWork)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go ctrl.Serve(ctx, ln)
	return ctrl, ln.Addr().String(), cancel
}

func dialClient(t *testing.T, addr string) *wire.Conn {
	t.Helper()
	conn, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "client", Codec: wire.CodecBinary}}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestOverloadShedsWithRetryAfter floods a one-slot controller and
// checks that every request is answered — admitted or an explicit
// TypeRetryAfter — and that shed replies carry a positive hint.
func TestOverloadShedsWithRetryAfter(t *testing.T) {
	ctrl, addr, _ := startOverloaded(t, overload.Options{
		MaxInflight: 1, MaxCeiling: 1, QueueBound: 1,
		QueueTimeout: 10 * time.Millisecond, LatencyTarget: -1,
	}, 20*time.Millisecond)

	const clients, perClient = 4, 8
	var (
		mu                    sync.Mutex
		admitted, shed, other int
		sawHint               bool
		unanswered            int
		wg                    sync.WaitGroup
	)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn := dialClient(t, addr)
			for j := 0; j < perClient; j++ {
				if err := conn.Send(&wire.Message{Type: wire.TypeSubmit, Seq: uint64(j + 1),
					Submit: &wire.Submit{Src: "DC1", Dst: "DC2", Bandwidth: 1, Target: 0.9}}); err != nil {
					return
				}
				reply, err := conn.Recv()
				mu.Lock()
				switch {
				case err != nil:
					unanswered++
				case reply.Type == wire.TypeAdmitResult:
					admitted++
				case reply.Type == wire.TypeRetryAfter:
					shed++
					if reply.RetryAfter != nil && reply.RetryAfter.RetryAfterMs > 0 {
						sawHint = true
					}
					if reply.Seq != uint64(j+1) {
						t.Errorf("retry-after Seq = %d, want %d", reply.Seq, j+1)
					}
				default:
					other++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if unanswered != 0 || other != 0 {
		t.Fatalf("unanswered=%d other=%d, want 0/0", unanswered, other)
	}
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if shed == 0 {
		t.Fatal("one-slot gate under 4x flood shed nothing")
	}
	if !sawHint {
		t.Fatal("no shed reply carried a retry-after hint")
	}
	snap, ok := ctrl.OverloadSnapshot()
	if !ok {
		t.Fatal("overload snapshot unavailable despite configured gate")
	}
	if snap.ShedByPrio[overload.PCritical] != 0 {
		t.Fatalf("critical sheds = %d, want 0", snap.ShedByPrio[overload.PCritical])
	}
}

// TestOverloadSimGoodputAndSheds offers a gated controller first as
// many closed-loop clients as it has slots (the 1x calibration) and
// then 5x its fully adapted capacity, and checks the acceptance bar:
// goodput under 5x offered load stays ≥90% of the calibrated goodput,
// shedding happens, is explicit, and never touches the critical class,
// survivors keep a bounded p99, and the demand book balances (every
// admission withdrawn, nothing silent).
func TestOverloadSimGoodputAndSheds(t *testing.T) {
	const maxInflight, ramp = 4, 5
	// survivorP99BoundMs bounds admitted requests under overload: queue
	// sojourn is capped by the gate's queue timeout, so a p99 near this
	// bound means shedding stopped protecting the queue.
	const survivorP99BoundMs = 500.0
	base := runOverloadPhase(t, "1x", maxInflight, maxInflight)
	// A closed-loop client saturates about one slot, and the AIMD
	// ceiling can grow the gate to 4x its base concurrency (its default
	// headroom). Ramp x the adapted concurrency keeps offered load ramp x
	// over capacity after the gate has adapted, so shedding is sustained
	// rather than a ramp-up transient.
	over := runOverloadPhase(t, fmt.Sprintf("%dx", ramp), maxInflight, maxInflight*4*ramp)
	ratio := 0.0
	if base.goodput > 0 {
		ratio = over.goodput / base.goodput
	}
	shedTotal := over.shedSubmit + over.shedStatus + over.shedCritical
	t.Logf("goodput %.0f/s at 1x -> %.0f/s at 5x (ratio %.2f), sheds %d (submit %d, status %d), survivor p99 %.1fms",
		base.goodput, over.goodput, ratio, shedTotal, over.shedSubmit, over.shedStatus, over.p99Ms)
	if base.admitted == 0 {
		t.Fatalf("calibration admitted nothing: %+v", base)
	}
	if ratio < 0.9 {
		t.Fatalf("goodput ratio %.2f (overload %.0f/s vs calibrated %.0f/s), want ≥0.90",
			ratio, over.goodput, base.goodput)
	}
	if shedTotal == 0 {
		t.Fatal("5x offered load produced no sheds")
	}
	if n := over.shedCritical + over.gate.ShedByPrio[overload.PCritical]; n != 0 {
		t.Fatalf("critical sheds = %d, want 0", n)
	}
	if over.gate.ShedByPrio[overload.PCritical] != 0 {
		t.Fatalf("gate counted %d critical sheds", over.gate.ShedByPrio[overload.PCritical])
	}
	if over.p99Ms <= 0 || over.p99Ms > survivorP99BoundMs {
		t.Fatalf("survivor p99 = %.1fms, want in (0, %.0f]", over.p99Ms, survivorP99BoundMs)
	}
	for _, ph := range []*overloadPhase{base, over} {
		if ph.withdrawn != ph.admitted {
			t.Fatalf("%s phase: %d admitted vs %d withdrawn", ph.name, ph.admitted, ph.withdrawn)
		}
		// Client-side accounting is closed: every offered submit was
		// admitted, explicitly shed, or (stub-)rejected — never silent.
		if ph.admitted+ph.shedSubmit > ph.offered {
			t.Fatalf("%s phase books more outcomes than offers: %+v", ph.name, ph)
		}
	}
}

// overloadPhase is one phase's client-side tally plus the gate's own
// counters.
type overloadPhase struct {
	name                                 string
	offered, admitted, withdrawn         int64
	shedSubmit, shedStatus, shedCritical int64
	ackMs                                []float64
	goodput                              float64 // admitted demands per second
	p99Ms                                float64 // submit→admit round trip of survivors
	gate                                 overload.Counters
}

// runOverloadPhase starts a fresh gated controller with a 2 ms stub
// admission cost and drives it for one second with the given number
// of closed-loop clients.
func runOverloadPhase(t *testing.T, name string, maxInflight, clients int) *overloadPhase {
	t.Helper()
	ctrl, addr, cancel := startOverloaded(t, overload.Options{
		// The AIMD ceiling keeps its default headroom: under overload the
		// coalescer's amortized release latencies let it grow, which keeps
		// goodput at capacity while the queue sheds the excess.
		MaxInflight: maxInflight, QueueBound: 2 * maxInflight, QueueTimeout: 25 * time.Millisecond,
	}, 2*time.Millisecond)
	defer cancel()
	conns := make([]*wire.Conn, clients)
	for i := range conns {
		conns[i] = dialClient(t, addr)
	}
	tallies := make([]overloadPhase, clients)
	errs := make([]error, clients)
	start := time.Now()
	stopAt := start.Add(time.Second)
	var wg sync.WaitGroup
	for i := range conns {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(1 + int64(i)*104729))
			errs[i] = driveOverloadClient(conns[i], rng, stopAt, &tallies[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	ph := &overloadPhase{name: name}
	ph.gate, _ = ctrl.OverloadSnapshot()
	for i := range tallies {
		if errs[i] != nil {
			t.Fatalf("%s phase, client %d: %v", name, i, errs[i])
		}
		c := &tallies[i]
		ph.offered += c.offered
		ph.admitted += c.admitted
		ph.withdrawn += c.withdrawn
		ph.shedSubmit += c.shedSubmit
		ph.shedStatus += c.shedStatus
		ph.shedCritical += c.shedCritical
		ph.ackMs = append(ph.ackMs, c.ackMs...)
	}
	ph.goodput = float64(ph.admitted) / elapsed
	if len(ph.ackMs) > 0 {
		ph.p99Ms = metrics.NewCDF(ph.ackMs).Quantile(0.99)
	}
	return ph
}

// driveOverloadClient is one closed-loop client: fresh single submits
// (each withdrawn as soon as it is admitted, keeping the book and the
// demand-id space small), with a status poll every ninth op. A shed
// backs off by the server's hint times seeded jitter in [0.5, 1.5).
func driveOverloadClient(conn *wire.Conn, rng *rand.Rand, stopAt time.Time, c *overloadPhase) error {
	var seq uint64
	for i := 0; time.Now().Before(stopAt); i++ {
		seq++
		m := &wire.Message{Type: wire.TypeStatus, Seq: seq}
		if i%9 != 8 {
			c.offered++
			// The deadline rides the v2 header; the gate tightens the
			// queue sojourn bound to it.
			m = &wire.Message{Type: wire.TypeSubmit, Seq: seq, DeadlineMs: 200,
				Submit: &wire.Submit{Src: "DC1", Dst: "DC2",
					Bandwidth: 10 + rng.Float64()*40, Target: 0.99, Charge: 10, RefundFrac: 0.5}}
		}
		if err := conn.Send(m); err != nil {
			return err
		}
		t0 := time.Now()
		reply, err := conn.Recv()
		if err != nil {
			return err
		}
		if reply.Seq != seq {
			return fmt.Errorf("reply seq %d for request %d", reply.Seq, seq)
		}
		switch reply.Type {
		case wire.TypeRetryAfter:
			if m.Type == wire.TypeSubmit {
				c.shedSubmit++
			} else {
				c.shedStatus++
			}
			hint := 25 * time.Millisecond
			if reply.RetryAfter != nil && reply.RetryAfter.RetryAfterMs > 0 {
				hint = time.Duration(reply.RetryAfter.RetryAfterMs) * time.Millisecond
			}
			time.Sleep(min(time.Duration(float64(hint)*(0.5+rng.Float64())), time.Until(stopAt)))
		case wire.TypeAdmitResult:
			c.ackMs = append(c.ackMs, float64(time.Since(t0).Microseconds())/1000)
			if reply.AdmitResult == nil || !reply.AdmitResult.Admitted {
				break // stub admission rejected: counted as offered, not admitted
			}
			c.admitted++
			seq++
			if err := conn.Send(&wire.Message{Type: wire.TypeWithdraw, Seq: seq, WithdrawID: reply.AdmitResult.DemandID}); err != nil {
				return err
			}
			wreply, err := conn.Recv()
			if err != nil {
				return err
			}
			switch wreply.Type {
			case wire.TypePong:
				c.withdrawn++
			case wire.TypeRetryAfter:
				// Withdrawals are critical and must never shed.
				c.shedCritical++
			default:
				return fmt.Errorf("withdraw reply %s", wreply.Type)
			}
		case wire.TypeStatusReply:
		default:
			return fmt.Errorf("unexpected reply %s %q", reply.Type, reply.Error)
		}
	}
	return nil
}

// TestWithdrawNeverShed verifies the priority floor end to end:
// withdrawals queue through the same flood that sheds submits.
func TestWithdrawNeverShed(t *testing.T) {
	_, addr, _ := startOverloaded(t, overload.Options{
		MaxInflight: 1, MaxCeiling: 1, QueueBound: 1,
		QueueTimeout: 10 * time.Millisecond, LatencyTarget: -1,
	}, 5*time.Millisecond)
	// Background flood keeps the slot busy.
	stop := make(chan struct{})
	var floodWG sync.WaitGroup
	for i := 0; i < 3; i++ {
		floodWG.Add(1)
		go func() {
			defer floodWG.Done()
			conn := dialClient(t, addr)
			for seq := uint64(1); ; seq++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := conn.Send(&wire.Message{Type: wire.TypeSubmit, Seq: seq,
					Submit: &wire.Submit{Src: "DC1", Dst: "DC2", Bandwidth: 1, Target: 0.9}}); err != nil {
					return
				}
				if _, err := conn.Recv(); err != nil {
					return
				}
			}
		}()
	}
	defer func() { close(stop); floodWG.Wait() }()

	conn := dialClient(t, addr)
	for i := 0; i < 10; i++ {
		if err := conn.Send(&wire.Message{Type: wire.TypeWithdraw, Seq: uint64(100 + i), WithdrawID: 1}); err != nil {
			t.Fatal(err)
		}
		reply, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if reply.Type == wire.TypeRetryAfter {
			t.Fatalf("withdraw %d was shed: %+v", i, reply.RetryAfter)
		}
	}
}

// TestServeDrainsSessionsOnShutdown: cancelling the serve context
// must close live sessions and return only after in-flight handlers
// finish — the handleConn WaitGroup satellite.
func TestServeDrainsSessionsOnShutdown(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	stubAdmission(ctrl, 0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- ctrl.Serve(ctx, ln) }()

	conn := dialClient(t, ln.Addr().String())
	if _, err := submitOne(conn, 1); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not drain sessions within 5s of cancel")
	}
	// The session was force-closed by the drain: the client sees EOF
	// rather than hanging forever.
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Recv(); err == nil {
		t.Fatal("drained session still delivered frames")
	}
}

func submitOne(conn *wire.Conn, seq uint64) (*wire.Message, error) {
	if err := conn.Send(&wire.Message{Type: wire.TypeSubmit, Seq: seq,
		Submit: &wire.Submit{Src: "DC1", Dst: "DC2", Bandwidth: 1, Target: 0.9}}); err != nil {
		return nil, err
	}
	return conn.Recv()
}

// TestSlowBrokerEvicted: a broker whose send queue wedges is removed
// from the push set (white-box — the wedge is produced directly).
func TestSlowBrokerEvicted(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	// Wedge a coalescing conn: nobody reads the pipe, so the writer
	// blocks on flush and the bounded queue fills.
	a, b := net.Pipe()
	defer b.Close()
	wc := wire.New(a)
	wc.SetEnqueueGrace(time.Millisecond)
	wc.EnableCoalescing()
	// Frames larger than the bufio buffer force the writer to block on
	// the very first flush instead of absorbing the burst.
	pad := make([]byte, 8192)
	for i := range pad {
		pad[i] = 'x'
	}
	var wedged bool
	for i := 0; i < wire.SendQueueDepth+50; i++ {
		if err := wc.Send(&wire.Message{Type: wire.TypeError, Seq: uint64(i), Error: string(pad)}); err != nil {
			if !errors.Is(err, wire.ErrSendQueueFull) {
				t.Fatalf("wedge err = %v", err)
			}
			wedged = true
			break
		}
	}
	if !wedged {
		t.Fatal("could not wedge the broker conn")
	}
	ctrl.mu.Lock()
	ctrl.brokers["DC1"] = wc
	ctrl.pushAllLocked(false)
	_, still := ctrl.brokers["DC1"]
	ctrl.mu.Unlock()
	if still {
		t.Fatal("slow broker survived a failed push")
	}
}

// TestStatusFromSnapshotUnderOverload: with the gate saturated, a
// status poll is served from the cached reply without a slot.
func TestStatusFromSnapshotUnderOverload(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{
		Net: n, Tunnels: ts, MaxFail: 2, Logf: silent,
		Overload: &overload.Options{MaxInflight: 1, MaxCeiling: 1, LatencyTarget: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	stubAdmission(ctrl, 0)
	cached := &wire.StatusReply{Epoch: 777}
	ctrl.setStatusCache(cached)
	// Saturate the gate: one acquired slot = at the ceiling.
	if d := ctrl.gate.Acquire("x", overload.PSubmit, 0); !d.OK {
		t.Fatalf("saturating acquire shed: %+v", d)
	}
	defer ctrl.gate.Release(time.Millisecond)

	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	server, client := wire.New(a), wire.New(b)
	go ctrl.handleClientMsg(server, "c", &wire.Message{Type: wire.TypeStatus, Seq: 9})
	client.SetDeadline(time.Now().Add(5 * time.Second))
	reply, err := client.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if reply.Type != wire.TypeStatusReply || reply.Status == nil || reply.Status.Epoch != 777 {
		t.Fatalf("reply %+v, want cached epoch 777", reply)
	}
}
