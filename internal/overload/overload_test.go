package overload

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock for bucket/stamp tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

func TestAcquireReleaseFastPath(t *testing.T) {
	g := NewGate(Options{MaxInflight: 2})
	d1 := g.Acquire("a", PSubmit, 0)
	d2 := g.Acquire("b", PSubmit, 0)
	if !d1.OK || !d2.OK {
		t.Fatalf("expected both admitted: %+v %+v", d1, d2)
	}
	if !g.Overloaded() {
		t.Fatal("at the ceiling the gate should report overloaded")
	}
	g.Release(time.Millisecond)
	g.Release(time.Millisecond)
	if g.Overloaded() {
		t.Fatal("idle gate should not report overloaded")
	}
	c := g.Snapshot()
	if c.Admitted != 2 {
		t.Fatalf("admitted = %d, want 2", c.Admitted)
	}
}

func TestPriorityOrderOnRelease(t *testing.T) {
	g := NewGate(Options{MaxInflight: 1, QueueTimeout: 5 * time.Second, LatencyTarget: -1})
	if d := g.Acquire("a", PSubmit, 0); !d.OK {
		t.Fatalf("first acquire shed: %+v", d)
	}
	order := make(chan Priority, 2)
	var wg sync.WaitGroup
	start := func(p Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := g.Acquire("b", p, 0); d.OK {
				order <- p
				g.Release(time.Millisecond)
			}
		}()
	}
	start(PStatus)
	// Let the status waiter enqueue first, then the critical one.
	waitQueued(t, g, 1)
	start(PCritical)
	waitQueued(t, g, 2)
	g.Release(time.Millisecond)
	wg.Wait()
	if first := <-order; first != PCritical {
		t.Fatalf("first granted priority = %v, want critical", first)
	}
}

// waitQueued blocks until n waiters (any priority) are queued.
func waitQueued(t *testing.T, g *Gate, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		g.mu.Lock()
		total := 0
		for p := range g.queues {
			total += len(g.queues[p])
		}
		g.mu.Unlock()
		if total >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("never saw %d queued waiters", n)
}

func TestQueueFullShedsLowestPriorityFirst(t *testing.T) {
	g := NewGate(Options{MaxInflight: 1, QueueBound: 1, QueueTimeout: 5 * time.Second, LatencyTarget: -1})
	if d := g.Acquire("a", PSubmit, 0); !d.OK {
		t.Fatal("first acquire shed")
	}
	// One status waiter fills the queue.
	statusDone := make(chan Decision, 1)
	go func() { statusDone <- g.Acquire("b", PStatus, 0) }()
	waitQueued(t, g, 1)
	// An incoming submit evicts the queued status waiter rather than
	// being shed itself.
	submitDone := make(chan Decision, 1)
	go func() { submitDone <- g.Acquire("c", PSubmit, 0) }()
	evicted := <-statusDone
	if evicted.OK {
		t.Fatal("status waiter should have been evicted")
	}
	if evicted.Reason != ReasonQueueFull {
		t.Fatalf("eviction reason = %q, want %q", evicted.Reason, ReasonQueueFull)
	}
	if evicted.RetryAfterMs <= 0 {
		t.Fatal("eviction must carry a retry-after hint")
	}
	// Now a second status poll finds the queue full of its own class
	// and is shed directly.
	if d := g.Acquire("d", PStatus, 0); d.OK || d.Reason != ReasonQueueFull {
		t.Fatalf("expected queue-full shed for status, got %+v", d)
	}
	g.Release(time.Millisecond)
	if d := <-submitDone; !d.OK {
		t.Fatalf("queued submit should have been granted, got %+v", d)
	}
	c := g.Snapshot()
	if c.ShedByPrio[PCritical] != 0 {
		t.Fatalf("critical sheds = %d, want 0", c.ShedByPrio[PCritical])
	}
	if c.ShedByPrio[PStatus] != 2 {
		t.Fatalf("status sheds = %d, want 2 (one eviction, one direct)", c.ShedByPrio[PStatus])
	}
}

func TestCriticalNeverShed(t *testing.T) {
	g := NewGate(Options{MaxInflight: 1, QueueBound: 1, QueueTimeout: 5 * time.Second, LatencyTarget: -1})
	if d := g.Acquire("a", PSubmit, 0); !d.OK {
		t.Fatal("first acquire shed")
	}
	// Fill the sheddable queue.
	go g.Acquire("b", PStatus, 0)
	waitQueued(t, g, 1)
	// Critical requests bypass the bound and the rate limiter: they
	// queue regardless.
	done := make(chan Decision, 1)
	go func() { done <- g.Acquire("c", PCritical, 0) }()
	waitQueued(t, g, 2)
	g.Release(time.Millisecond)
	if d := <-done; !d.OK {
		t.Fatalf("critical request was shed: %+v", d)
	}
	g.Release(time.Millisecond)
}

// TestCriticalOutwaitsQueueTimeout: an unsheddable request queued past
// QueueTimeout (and past its own deadline) keeps waiting for its slot
// instead of being shed, and Close still ends such a wait.
func TestCriticalOutwaitsQueueTimeout(t *testing.T) {
	g := NewGate(Options{MaxInflight: 1, QueueTimeout: 5 * time.Millisecond, LatencyTarget: -1})
	if d := g.Acquire("a", PSubmit, 0); !d.OK {
		t.Fatal("first acquire shed")
	}
	done := make(chan Decision, 1)
	go func() { done <- g.Acquire("c", PCritical, 5*time.Millisecond) }()
	waitQueued(t, g, 1)
	time.Sleep(30 * time.Millisecond) // six sojourn bounds
	g.Release(time.Millisecond)
	if d := <-done; !d.OK {
		t.Fatalf("critical request was shed after QueueTimeout: %+v", d)
	}
	if c := g.Snapshot(); c.Timeouts != 0 {
		t.Fatalf("timeouts = %d, want 0", c.Timeouts)
	}

	go func() { done <- g.Acquire("c", PCritical, 0) }()
	waitQueued(t, g, 1)
	g.Close()
	if d := <-done; d.OK || d.Reason != ReasonGateClosed {
		t.Fatalf("Close left a critical waiter with %+v, want a gate-closed shed", d)
	}
}

func TestQueueTimeoutSheds(t *testing.T) {
	g := NewGate(Options{MaxInflight: 1, QueueTimeout: 20 * time.Millisecond, LatencyTarget: -1})
	if d := g.Acquire("a", PSubmit, 0); !d.OK {
		t.Fatal("first acquire shed")
	}
	d := g.Acquire("b", PSubmit, 0) // blocks ~20ms, then shed
	if d.OK {
		t.Fatal("expected sojourn-bound shed")
	}
	if d.Reason != ReasonQueueDelay {
		t.Fatalf("reason = %q, want %q", d.Reason, ReasonQueueDelay)
	}
	if g.Snapshot().Timeouts != 1 {
		t.Fatalf("timeouts = %d, want 1", g.Snapshot().Timeouts)
	}
}

func TestClientDeadlineTightensSojourn(t *testing.T) {
	g := NewGate(Options{MaxInflight: 1, QueueTimeout: 5 * time.Second, LatencyTarget: -1})
	if d := g.Acquire("a", PSubmit, 0); !d.OK {
		t.Fatal("first acquire shed")
	}
	t0 := time.Now()
	d := g.Acquire("b", PSubmit, 15*time.Millisecond)
	if d.OK {
		t.Fatal("expected deadline shed")
	}
	if d.Reason != ReasonDeadline {
		t.Fatalf("reason = %q, want %q", d.Reason, ReasonDeadline)
	}
	if waited := time.Since(t0); waited > time.Second {
		t.Fatalf("waited %v; the 15ms client deadline should bound the queue", waited)
	}
}

func TestAIMDCeilingAdapts(t *testing.T) {
	g := NewGate(Options{MaxInflight: 8, MinInflight: 1, LatencyTarget: 10 * time.Millisecond, AdjustEvery: 1})
	// Slow requests shrink the ceiling multiplicatively.
	for i := 0; i < 10; i++ {
		if d := g.Acquire("a", PSubmit, 0); d.OK {
			g.Release(100 * time.Millisecond)
		}
	}
	if lim := g.Limit(); lim >= 8 {
		t.Fatalf("limit = %d after sustained slow acks, want < 8", lim)
	}
	// Fast requests grow it back additively. The EWMA has to wash out
	// first, so this takes more rounds.
	for i := 0; i < 200; i++ {
		if d := g.Acquire("a", PSubmit, 0); d.OK {
			g.Release(time.Millisecond)
		}
	}
	if lim := g.Limit(); lim < 8 {
		t.Fatalf("limit = %d after recovery, want >= 8", lim)
	}
	if lim := g.Limit(); lim > 32 {
		t.Fatalf("limit = %d, want capped at MaxCeiling 32", lim)
	}
}

func TestPerClientRateLimit(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(Options{MaxInflight: 100, RatePerClient: 10, BurstPerClient: 2, Clock: clk.Now})
	for i := 0; i < 2; i++ {
		if d := g.Acquire("chatty", PSubmit, 0); !d.OK {
			t.Fatalf("burst acquire %d shed: %+v", i, d)
		}
		g.Release(time.Millisecond)
	}
	d := g.Acquire("chatty", PSubmit, 0)
	if d.OK || d.Reason != ReasonRateLimit {
		t.Fatalf("expected rate-limit shed, got %+v", d)
	}
	// A different client is unaffected.
	if d := g.Acquire("quiet", PSubmit, 0); !d.OK {
		t.Fatalf("other client shed: %+v", d)
	}
	g.Release(time.Millisecond)
	// Refill at 10/sec: 100ms buys one token back.
	clk.Advance(100 * time.Millisecond)
	if d := g.Acquire("chatty", PSubmit, 0); !d.OK {
		t.Fatalf("post-refill acquire shed: %+v", d)
	}
	g.Release(time.Millisecond)
	// Critical requests bypass the bucket entirely.
	if d := g.Acquire("chatty", PCritical, 0); !d.OK {
		t.Fatalf("critical should bypass rate limit: %+v", d)
	}
	g.Release(time.Millisecond)
}

// TestFractionalRateFirstRequestPasses pins the sub-1-req/s burst
// clamp: with rate 0.2 the defaulted burst (2x rate = 0.4) could
// never hold one whole token, denying every request forever. The
// burst floor of 1 lets a fresh client's first request through and
// the refill lets later ones through eventually.
func TestFractionalRateFirstRequestPasses(t *testing.T) {
	clk := newFakeClock()
	g := NewGate(Options{MaxInflight: 100, RatePerClient: 0.2, Clock: clk.Now})
	if d := g.Acquire("fresh", PSubmit, 0); !d.OK {
		t.Fatalf("fresh client's first request shed: %+v", d)
	}
	g.Release(time.Millisecond)
	if d := g.Acquire("fresh", PSubmit, 0); d.OK || d.Reason != ReasonRateLimit {
		t.Fatalf("second immediate request should rate-limit, got %+v", d)
	}
	// 5 seconds at 0.2/sec refills one token.
	clk.Advance(5 * time.Second)
	if d := g.Acquire("fresh", PSubmit, 0); !d.OK {
		t.Fatalf("post-refill request shed: %+v", d)
	}
	g.Release(time.Millisecond)
}

func TestShedGateInjection(t *testing.T) {
	calls := 0
	g := NewGate(Options{MaxInflight: 4, ShedGate: func(p Priority) bool {
		calls++
		return calls%2 == 0 // shed every second sheddable acquire
	}})
	var shed, ok int
	for i := 0; i < 6; i++ {
		d := g.Acquire("a", PSubmit, 0)
		if d.OK {
			ok++
			g.Release(time.Millisecond)
		} else {
			if d.Reason != ReasonInjected {
				t.Fatalf("reason = %q, want %q", d.Reason, ReasonInjected)
			}
			shed++
		}
	}
	if ok != 3 || shed != 3 {
		t.Fatalf("ok=%d shed=%d, want 3/3", ok, shed)
	}
	// The gate never fires for unsheddable priorities.
	before := calls
	if d := g.Acquire("a", PCritical, 0); !d.OK {
		t.Fatal("critical shed by injection gate")
	}
	g.Release(time.Millisecond)
	if calls != before {
		t.Fatal("ShedGate consulted for a critical request")
	}
}

func TestCloseShedsWaiters(t *testing.T) {
	g := NewGate(Options{MaxInflight: 1, QueueTimeout: 5 * time.Second, LatencyTarget: -1})
	if d := g.Acquire("a", PSubmit, 0); !d.OK {
		t.Fatal("first acquire shed")
	}
	done := make(chan Decision, 1)
	go func() { done <- g.Acquire("b", PSubmit, 0) }()
	waitQueued(t, g, 1)
	g.Close()
	if d := <-done; d.OK || d.Reason != ReasonGateClosed {
		t.Fatalf("expected gate-closed shed, got %+v", d)
	}
	if d := g.Acquire("c", PSubmit, 0); d.OK {
		t.Fatal("closed gate admitted a request")
	}
}

func TestParsePriority(t *testing.T) {
	for in, want := range map[string]Priority{
		"critical": PCritical, "withdraw": PCritical,
		"submit": PSubmit, "status": PStatus,
	} {
		got, err := ParsePriority(in)
		if err != nil || got != want {
			t.Fatalf("ParsePriority(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParsePriority("bogus"); err == nil {
		t.Fatal("ParsePriority accepted garbage")
	}
}

// TestConcurrentChurn is a race-detector smoke: many goroutines
// acquiring at mixed priorities while the ceiling adapts.
func TestConcurrentChurn(t *testing.T) {
	g := NewGate(Options{MaxInflight: 4, QueueBound: 8, QueueTimeout: 10 * time.Millisecond, AdjustEvery: 4})
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := Priority(i % int(numPriorities))
			for j := 0; j < 20; j++ {
				if d := g.Acquire("client", p, 0); d.OK {
					g.Release(time.Duration(j%3) * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()
	c := g.Snapshot()
	if c.Admitted == 0 {
		t.Fatal("nothing admitted under churn")
	}
}
