// Package overload is the controller's admission-control layer for
// its *own* request path: a priority-aware bounded queue in front of
// a concurrency limiter, so a flash crowd degrades the cheapest
// requests first instead of everyone at once.
//
// Three mechanisms compose:
//
//   - a concurrency limiter with an adaptive (AIMD) ceiling driven by
//     observed request latency: when handling slows past the target,
//     the ceiling shrinks multiplicatively; when it recovers, the
//     ceiling creeps back up additively;
//   - a bounded wait queue with CoDel-style sojourn shedding: a
//     request that cannot start within its queue deadline (or the
//     client's own request deadline, whichever is tighter) is shed
//     with an explicit retry-after hint instead of timing out
//     silently. When the queue is full, the lowest-priority newest
//     waiter is evicted first — withdraw/link-event > submit >
//     status, mirroring how the PR-4 recovery ladder degrades solve
//     quality rather than deadline;
//   - per-client token buckets, so one chatty client cannot starve
//     the rest even below the global ceiling.
//
// Every shed is explicit: the caller turns the Decision into a
// TypeRetryAfter frame, never a dropped request.
package overload

import (
	"fmt"
	"sync"
	"time"

	"bate/internal/metrics"
)

// Priority orders request classes; numerically lower is more
// critical. Shedding always starts from the numerically highest
// (cheapest) class present.
type Priority int8

const (
	// PCritical: withdrawals and link events. Dropping a withdrawal
	// leaks booked bandwidth; dropping a link event delays recovery.
	PCritical Priority = iota
	// PSubmit: new demand submissions. Shedding one costs a customer,
	// not correctness.
	PSubmit
	// PStatus: status polls. Pure observability; first against the
	// wall, and servable from a snapshot when shed.
	PStatus

	numPriorities
)

// String names the priority for flags and reports.
func (p Priority) String() string {
	switch p {
	case PCritical:
		return "critical"
	case PSubmit:
		return "submit"
	case PStatus:
		return "status"
	}
	return fmt.Sprintf("priority-%d", int(p))
}

// ParsePriority parses a -shed-priority flag value.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "critical", "withdraw":
		return PCritical, nil
	case "submit":
		return PSubmit, nil
	case "status":
		return PStatus, nil
	}
	return PSubmit, fmt.Errorf("overload: unknown priority %q (want critical, submit or status)", s)
}

// Options configures a Gate. The zero value of any field selects its
// default.
type Options struct {
	// MaxInflight is the initial concurrency ceiling (default 64).
	MaxInflight int
	// MinInflight is the adaptive floor (default 1).
	MinInflight int
	// MaxCeiling caps adaptive growth (default 4x MaxInflight).
	MaxCeiling int
	// QueueBound is the maximum number of sheddable waiters queued
	// across all priorities (default 4x MaxInflight). Unsheddable
	// priorities bypass the bound: there are at most a handful of
	// critical requests per connection in flight.
	QueueBound int
	// QueueTimeout is the CoDel-style sojourn bound: a sheddable
	// request still queued after this long is shed (default 100ms).
	QueueTimeout time.Duration
	// LatencyTarget drives the AIMD ceiling: when the EWMA of request
	// latency exceeds it, the ceiling decreases multiplicatively;
	// otherwise it increases additively (default 50ms; negative
	// disables adaptation).
	LatencyTarget time.Duration
	// AdjustEvery is how many releases pass between AIMD adjustments
	// (default 16).
	AdjustEvery int
	// ShedPriority is the most critical class the gate may shed;
	// classes numerically below it are never shed, only queued
	// (default PSubmit: submits and status polls are sheddable).
	// PCritical (withdrawals, link events) is never sheddable: the
	// zero value and anything below PSubmit clamp up to PSubmit.
	ShedPriority Priority
	// RatePerClient is the per-client token-bucket refill rate in
	// requests/sec (default 0 = unlimited).
	RatePerClient float64
	// BurstPerClient is the bucket depth (default 2x RatePerClient).
	BurstPerClient float64
	// RetryAfterBase scales the retry-after hint handed to shed
	// clients; the hint grows with queue pressure (default 50ms).
	RetryAfterBase time.Duration
	// ShedGate, when non-nil, is consulted on every sheddable acquire
	// and forces a shed when it returns true. The chaos admission
	// front hooks in here so shedding decisions replay
	// deterministically from a seed.
	ShedGate func(p Priority) bool
	// Clock overrides time.Now for tests (nil = time.Now).
	Clock func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxInflight <= 0 {
		o.MaxInflight = 64
	}
	if o.MinInflight <= 0 {
		o.MinInflight = 1
	}
	if o.MaxCeiling <= 0 {
		o.MaxCeiling = 4 * o.MaxInflight
	}
	if o.QueueBound <= 0 {
		o.QueueBound = 4 * o.MaxInflight
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 100 * time.Millisecond
	}
	if o.LatencyTarget == 0 {
		o.LatencyTarget = 50 * time.Millisecond
	}
	if o.AdjustEvery <= 0 {
		o.AdjustEvery = 16
	}
	if o.ShedPriority < PSubmit {
		o.ShedPriority = PSubmit
	}
	if o.ShedPriority >= numPriorities {
		o.ShedPriority = numPriorities - 1
	}
	if o.BurstPerClient <= 0 {
		o.BurstPerClient = 2 * o.RatePerClient
	}
	if o.BurstPerClient < 1 {
		// A bucket that can never hold one whole token denies its
		// client forever; any configured rate must let single
		// requests through eventually.
		o.BurstPerClient = 1
	}
	if o.RetryAfterBase <= 0 {
		o.RetryAfterBase = 50 * time.Millisecond
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	return o
}

// Shed reasons, surfaced in Decision.Reason and the retry-after frame.
const (
	ReasonQueueFull  = "queue-full"
	ReasonQueueDelay = "queue-timeout"
	ReasonDeadline   = "deadline"
	ReasonRateLimit  = "rate-limit"
	ReasonInjected   = "injected"
	ReasonGateClosed = "gate-closed"
)

// Decision is the outcome of one Acquire. When OK, the caller runs
// the request and must call Release with the observed latency; when
// shed, RetryAfterMs and Reason describe the explicit reject the
// caller owes the client.
type Decision struct {
	OK           bool
	RetryAfterMs int64
	Reason       string
}

var (
	mAdmitted   = metrics.NewCounter("overload.admitted")
	mShedTotal  = metrics.NewCounter("overload.shed_total")
	mShedByPrio = [numPriorities]*metrics.Counter{
		metrics.NewCounter("overload.shed_critical"),
		metrics.NewCounter("overload.shed_submit"),
		metrics.NewCounter("overload.shed_status"),
	}
	mQueueTimeouts = metrics.NewCounter("overload.queue_timeouts")
	mRateLimited   = metrics.NewCounter("overload.rate_limited")
	mEvictions     = metrics.NewCounter("overload.queue_evictions")
	mLimitRaises   = metrics.NewCounter("overload.limit_raises")
	mLimitDrops    = metrics.NewCounter("overload.limit_drops")
	mInflightPeak  = metrics.NewMaxGauge("overload.inflight_peak")
	mQueuePeak     = metrics.NewMaxGauge("overload.queue_peak")
)

// waiter is one queued request.
type waiter struct {
	prio    Priority
	enq     time.Time
	granted chan Decision // buffered(1); receives exactly one decision
	done    bool          // granted or shed; guarded by Gate.mu
}

// Counters is a point-in-time snapshot of one gate's own tallies
// (distinct from the process-wide metrics registry, so a harness can
// difference two phases of the same process).
type Counters struct {
	Admitted   int64
	ShedByPrio [int(numPriorities)]int64
	Evictions  int64
	RateLimit  int64
	Timeouts   int64
	Limit      int
}

// Gate is the admission gate. All methods are safe for concurrent
// use.
type Gate struct {
	opts Options

	mu       sync.Mutex
	inflight int
	limit    float64
	queues   [numPriorities][]*waiter
	queued   int // sheddable waiters only (bound enforcement)
	ewmaMs   float64
	releases int
	lastShed time.Time
	closed   bool

	buckets *buckets

	counters Counters
}

// NewGate builds a gate from options.
func NewGate(opts Options) *Gate {
	o := opts.withDefaults()
	g := &Gate{opts: o, limit: float64(o.MaxInflight)}
	if o.RatePerClient > 0 {
		g.buckets = newBuckets(o.RatePerClient, o.BurstPerClient, o.Clock)
	}
	return g
}

// Limit reports the current adaptive concurrency ceiling.
func (g *Gate) Limit() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return int(g.limit)
}

// Snapshot returns the gate's own counters.
func (g *Gate) Snapshot() Counters {
	g.mu.Lock()
	defer g.mu.Unlock()
	c := g.counters
	c.Limit = int(g.limit)
	return c
}

// Overloaded reports whether the gate is saturated right now:
// requests are queued, or the inflight count has reached the ceiling.
// The controller keys its graceful degradations off this — status
// from snapshot, submit coalescing, deferred reschedules.
func (g *Gate) Overloaded() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.queued > 0 || g.inflight >= int(g.limit)
}

// Close sheds every queued waiter and makes further Acquires shed
// immediately. Used on controller shutdown so no session blocks the
// drain.
func (g *Gate) Close() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.closed = true
	for p := range g.queues {
		for _, w := range g.queues[p] {
			if !w.done {
				w.done = true
				w.granted <- Decision{OK: false, RetryAfterMs: g.retryAfterLocked(), Reason: ReasonGateClosed}
			}
		}
		g.queues[p] = nil
	}
	g.queued = 0
}

// shed records one shed decision for priority p.
func (g *Gate) shedLocked(p Priority, reason string) Decision {
	g.lastShed = g.opts.Clock()
	g.counters.ShedByPrio[p]++
	mShedTotal.Inc()
	if int(p) < len(mShedByPrio) {
		mShedByPrio[p].Inc()
	}
	return Decision{OK: false, RetryAfterMs: g.retryAfterLocked(), Reason: reason}
}

// retryAfterLocked derives the backoff hint from queue pressure: the
// deeper the queue relative to the ceiling, the longer clients should
// stay away. Deterministic — clients add their own jitter.
func (g *Gate) retryAfterLocked() int64 {
	base := g.opts.RetryAfterBase.Milliseconds()
	lim := g.limit
	if lim < 1 {
		lim = 1
	}
	ms := base * (1 + int64(float64(g.queued)/lim))
	if max := int64(2000); ms > max {
		ms = max
	}
	return ms
}

// Acquire asks for one execution slot. client keys the per-client
// rate limit ("" skips it); deadline is the client's own request
// budget (0 = none), which tightens the queue-sojourn bound. A
// sheddable request blocks at most min(QueueTimeout, deadline); an
// unsheddable one (below ShedPriority) waits for its slot, and only
// Close ends its wait without one.
func (g *Gate) Acquire(client string, p Priority, deadline time.Duration) Decision {
	if p < 0 {
		p = 0
	}
	if p >= numPriorities {
		p = numPriorities - 1
	}
	sheddable := p >= g.opts.ShedPriority

	g.mu.Lock()
	if g.closed {
		d := g.shedLocked(p, ReasonGateClosed)
		g.mu.Unlock()
		return d
	}
	if sheddable {
		if g.buckets != nil && client != "" && !g.buckets.allow(client) {
			g.counters.RateLimit++
			mRateLimited.Inc()
			d := g.shedLocked(p, ReasonRateLimit)
			g.mu.Unlock()
			return d
		}
		if g.opts.ShedGate != nil && g.opts.ShedGate(p) {
			d := g.shedLocked(p, ReasonInjected)
			g.mu.Unlock()
			return d
		}
	}
	// Fast path: a free slot and nobody more critical waiting.
	if g.inflight < int(g.limit) && !g.waitersAheadLocked(p) {
		g.inflight++
		g.counters.Admitted++
		mAdmitted.Inc()
		mInflightPeak.Observe(int64(g.inflight))
		g.mu.Unlock()
		return Decision{OK: true}
	}
	// Queue bound: sheddable waiters compete for QueueBound places;
	// an incoming request evicts the newest waiter of the cheapest
	// class strictly below its own priority, or is shed itself.
	if sheddable && g.queued >= g.opts.QueueBound {
		if !g.evictCheaperLocked(p) {
			d := g.shedLocked(p, ReasonQueueFull)
			g.mu.Unlock()
			return d
		}
	}
	w := &waiter{prio: p, enq: g.opts.Clock(), granted: make(chan Decision, 1)}
	g.queues[p] = append(g.queues[p], w)
	if sheddable {
		g.queued++
		mQueuePeak.Observe(int64(g.queued))
	}
	g.mu.Unlock()
	if !sheddable {
		return <-w.granted
	}

	wait := g.opts.QueueTimeout
	reason := ReasonQueueDelay
	if deadline > 0 && deadline < wait {
		wait = deadline
		reason = ReasonDeadline
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case d := <-w.granted:
		return d
	case <-timer.C:
	}
	// Sojourn bound hit; race the grant under the lock.
	g.mu.Lock()
	if w.done {
		// A grant (or eviction) landed between timer fire and lock.
		g.mu.Unlock()
		return <-w.granted
	}
	g.removeLocked(w)
	g.counters.Timeouts++
	mQueueTimeouts.Inc()
	d := g.shedLocked(p, reason)
	g.mu.Unlock()
	return d
}

// waitersAheadLocked reports whether any waiter of priority <= p is
// queued (strict priority: never overtake a peer or better).
func (g *Gate) waitersAheadLocked(p Priority) bool {
	for q := Priority(0); q <= p; q++ {
		if len(g.queues[q]) > 0 {
			return true
		}
	}
	return false
}

// evictCheaperLocked sheds the newest waiter of the numerically
// highest class strictly above p, freeing one queue place. Reports
// whether anything was evicted.
func (g *Gate) evictCheaperLocked(p Priority) bool {
	for q := numPriorities - 1; q > p; q-- {
		qs := g.queues[q]
		if len(qs) == 0 {
			continue
		}
		w := qs[len(qs)-1]
		g.queues[q] = qs[:len(qs)-1]
		w.done = true
		g.queued--
		g.counters.Evictions++
		mEvictions.Inc()
		w.granted <- g.shedLocked(q, ReasonQueueFull)
		return true
	}
	return false
}

// removeLocked deletes w from its queue (timeout path).
func (g *Gate) removeLocked(w *waiter) {
	qs := g.queues[w.prio]
	for i, x := range qs {
		if x == w {
			g.queues[w.prio] = append(qs[:i], qs[i+1:]...)
			break
		}
	}
	w.done = true
	if w.prio >= g.opts.ShedPriority {
		g.queued--
	}
}

// Release returns a slot, feeds the AIMD controller with the
// observed request latency, and hands freed slots to waiters in
// strict priority order (oldest first within a class).
func (g *Gate) Release(latency time.Duration) {
	g.mu.Lock()
	if g.inflight > 0 {
		g.inflight--
	}
	g.adjustLocked(latency)
	for g.inflight < int(g.limit) {
		w := g.popLocked()
		if w == nil {
			break
		}
		g.inflight++
		g.counters.Admitted++
		mAdmitted.Inc()
		mInflightPeak.Observe(int64(g.inflight))
		w.granted <- Decision{OK: true}
	}
	g.mu.Unlock()
}

// popLocked takes the oldest waiter of the most critical non-empty
// class.
func (g *Gate) popLocked() *waiter {
	for p := Priority(0); p < numPriorities; p++ {
		if len(g.queues[p]) == 0 {
			continue
		}
		w := g.queues[p][0]
		g.queues[p] = g.queues[p][1:]
		w.done = true
		if p >= g.opts.ShedPriority {
			g.queued--
		}
		return w
	}
	return nil
}

// adjustLocked runs the AIMD step: EWMA the latency, and every
// AdjustEvery releases compare it against the target — over it,
// multiplicative decrease; under it, additive increase.
func (g *Gate) adjustLocked(latency time.Duration) {
	if g.opts.LatencyTarget < 0 {
		return
	}
	ms := float64(latency.Microseconds()) / 1000
	const alpha = 0.2
	if g.ewmaMs == 0 {
		g.ewmaMs = ms
	} else {
		g.ewmaMs = (1-alpha)*g.ewmaMs + alpha*ms
	}
	g.releases++
	if g.releases < g.opts.AdjustEvery {
		return
	}
	g.releases = 0
	target := float64(g.opts.LatencyTarget.Microseconds()) / 1000
	switch {
	case g.ewmaMs > target:
		g.limit *= 0.85
		if g.limit < float64(g.opts.MinInflight) {
			g.limit = float64(g.opts.MinInflight)
		}
		mLimitDrops.Inc()
	default:
		g.limit++
		if g.limit > float64(g.opts.MaxCeiling) {
			g.limit = float64(g.opts.MaxCeiling)
		}
		mLimitRaises.Inc()
	}
}
