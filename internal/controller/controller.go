// Package controller implements the central BATE controller of §4: it
// accepts BA demand submissions from clients, runs admission control
// in near real time, periodically re-optimizes allocations with the
// scheduling LP, precomputes failure backups, and pushes per-DC
// allocations to the brokers over long-lived TCP sessions.
package controller

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"slices"
	"sort"
	"sync"
	"time"

	"bate/internal/alloc"
	"bate/internal/bate"
	"bate/internal/demand"
	"bate/internal/metrics"
	"bate/internal/overload"
	"bate/internal/partition"
	"bate/internal/routing"
	"bate/internal/store"
	"bate/internal/topo"
	"bate/internal/wire"
)

// Config configures a Controller.
type Config struct {
	Net     *topo.Network
	Tunnels *routing.TunnelSet
	// MaxFail is the scenario pruning depth (default 2).
	MaxFail int
	// BackupDepth is how many concurrent link failures get precomputed
	// backup allocations (default 1; §3.4). Combination counts grow as
	// C(|E|, depth); BackupBudget caps them (0 = |E|·4).
	BackupDepth  int
	BackupBudget int
	// SchedulePeriod is the online scheduler's cadence (§3.3 suggests
	// ~10 minutes in production; examples use seconds). Zero disables
	// the periodic loop (a conjecture admit still triggers a round).
	SchedulePeriod time.Duration
	// Store, when non-nil, makes the controller durable: New resumes
	// from the state it replayed (demand book, allocation, link-down
	// set, epoch and id allocator), and every state transition is
	// appended to its WAL before it is applied, so before any client is
	// acked.
	Store *store.Store
	// CompactEvery is the store compaction cadence: the controller
	// snapshots its state and trims the WAL on this period (0 disables;
	// ignored without a Store). Admissions pause briefly during a
	// compaction.
	CompactEvery time.Duration
	// FrameTimeout bounds how long a peer may take to finish sending a
	// message frame once its first byte arrives (a half-written frame
	// would otherwise block the reader goroutine forever). Zero means
	// the 30s default; negative disables the deadline.
	FrameTimeout time.Duration
	// RecoveryDeadline bounds the failure-recovery pipeline per link
	// event: backup hit, then a budgeted optimal MILP racing the
	// remaining deadline, then the greedy floor (default 2s; see
	// bate.Recover).
	RecoveryDeadline time.Duration
	// SolverGate, when non-nil, is consulted before solver-backed
	// operations ("schedule", "recover"); an error makes the operation
	// degrade (keep the current allocation / fall down the recovery
	// ladder) instead of running. The chaos solver-budget front hooks
	// in here.
	SolverGate func(op string) error
	// SolverWatch, when non-nil, supplies a per-solve cancellation
	// probe for solver-backed operations: the returned func is polled
	// from inside the pivot/iteration loop and an error aborts the
	// solve mid-flight (the reschedule then keeps the current
	// allocation). The chaos mid-solve front hooks in here; nil
	// returned probes cost nothing.
	SolverWatch func(op string) func() error
	// Partition, when non-nil, runs every reschedule through BATE's
	// hierarchical (partitioned) scheduling; rounds the decomposition
	// declines fall back to the global solve transparently. See
	// bate.ScheduleOptions.Partition.
	Partition *partition.Options
	// Overload, when non-nil, puts the admission gate of
	// internal/overload in front of every client session: a bounded
	// priority queue (withdraw > submit > status) with CoDel-style
	// sojourn shedding, per-client rate limits and an adaptive
	// concurrency ceiling. Shed requests are answered with explicit
	// TypeRetryAfter frames — never silently dropped. Under sustained
	// overload the controller additionally serves status from the last
	// snapshot, coalesces single submits into shared AdmitBatch calls,
	// and defers periodic reschedules. Nil disables all of it.
	Overload *overload.Options
	// Maintenance schedules proactive drains around planned link work
	// (§3.4 in reverse: the failure is known in advance). Serve walks
	// the windows by wall clock, draining each link Lead before its
	// Start and undraining it at End. Operators can also call
	// DrainLink/UndrainLink directly.
	Maintenance []MaintenanceWindow
	// Logf receives diagnostics; nil uses the standard logger.
	Logf func(string, ...interface{})
}

// MaintenanceWindow is one planned link outage: the controller drains
// the link Lead before Start — the reschedule routes all traffic off
// it while it is still up, so the later outage hits a link carrying
// nothing — and undrains it at End. Drain state is deliberately not
// durable: a failed-over replica re-derives it from its own window
// list rather than trusting a dead master's clock. Windows on the
// same link must not overlap (drains are not refcounted; the earliest
// End returns the link to service).
type MaintenanceWindow struct {
	SrcDC, DstDC string
	Start, End   time.Time
	// Lead is how long before Start the drain begins (default 30s).
	Lead time.Duration
}

var (
	mAppendRetries = metrics.NewCounter("controller.append_retries")

	// Session-teardown classification: a clean disconnect (EOF between
	// frames) is routine churn; a typed wire error is frame damage.
	mPeerDisconnects = metrics.NewCounter("controller.peer_disconnects")
	mFrameErrors     = metrics.NewCounter("controller.frame_errors")
	mOversizeFrames  = metrics.NewCounter("controller.oversize_frames")

	// Overload degradations.
	mStatusSnapshot  = metrics.NewCounter("controller.status_from_snapshot")
	mSubmitCoalesced = metrics.NewCounter("controller.submits_coalesced")
	mDeferredResched = metrics.NewCounter("controller.deferred_reschedules")
	mSlowBrokerEvict = metrics.NewCounter("controller.slow_broker_evictions")

	// Maintenance drains.
	mDrains   = metrics.NewCounter("controller.drains")
	mUndrains = metrics.NewCounter("controller.undrains")

	// Rounds whose bate.Harden failed and pushed the relaxed allocation.
	mHardenFailures = metrics.NewCounter("controller.harden_failures")
)

// countRecvErr classifies the error that ended a session's receive
// loop, using the wire package's typed errors so damaged peers and
// departing peers land in different counters.
func countRecvErr(err error) {
	switch {
	case err == nil, errors.Is(err, io.EOF), errors.Is(err, net.ErrClosed):
		mPeerDisconnects.Inc()
	case errors.Is(err, wire.ErrFrameTooLarge):
		mOversizeFrames.Inc()
	case errors.Is(err, wire.ErrShortRead), errors.Is(err, wire.ErrBadMagic),
		errors.Is(err, wire.ErrBadVersion), errors.Is(err, wire.ErrBadFrame):
		mFrameErrors.Inc()
	default:
		mPeerDisconnects.Inc()
	}
}

// appendDurable runs one store append with bounded jittered-backoff
// retries. The store repairs its WAL tail after a failed append, so a
// retry is safe (no duplicate or torn record can result); transient
// disk hiccups therefore cost latency, not a refused admission. The
// final error after all retries is the caller's to fail closed on.
func (c *Controller) appendDurable(what string, fn func() error) error {
	delay := 5 * time.Millisecond
	var err error
	for attempt := 0; ; attempt++ {
		if err = fn(); err == nil {
			if attempt > 0 {
				c.logf("controller: store %s succeeded after %d retries", what, attempt)
			}
			return nil
		}
		if attempt == 3 {
			return err
		}
		mAppendRetries.Inc()
		c.logf("controller: store %s failed (attempt %d), retrying: %v", what, attempt+1, err)
		time.Sleep(delay + time.Duration(rand.Int63n(int64(delay))))
		delay *= 2
	}
}

// Controller is the system brain. Create with New, start with Serve,
// stop by closing the listener or cancelling the context.
type Controller struct {
	cfg  Config
	logf func(string, ...interface{})

	// scheduler carries the revised-simplex basis across rounds so a
	// reschedule over an unchanged demand set warm-starts.
	scheduler *bate.Scheduler

	mu sync.Mutex
	// st is the demand book, allocation, link-down set, epoch and id
	// allocator. It changes only through commit, the same Apply a WAL
	// replay runs.
	st      *store.State
	backups *bate.BackupSet
	brokers map[string]*wire.Conn
	// drained is the maintenance drain set. Drains are deliberately not
	// durable (see MaintenanceWindow), so it lives beside st, not in it.
	drained  map[topo.LinkID]bool
	restored bool // state came from the store; reschedule once on Serve
	// routes holds each pair's tunnels as the brokers see them, built on
	// first use (see routesLocked).
	routes map[[2]topo.NodeID][]route

	// stubWork is a test seam. When non-nil, admission skips the solver
	// and admits every valid demand without allocation rows (method
	// "stub"); durability, id allocation and pushes are unchanged.
	// stubWork runs outside the lock once per submit or coalesced batch
	// (a batch pays one unit, which is what makes coalescing raise
	// goodput), giving overload tests a known controller capacity.
	stubWork func()

	// Overload control (nil gate = disabled). submitq feeds the
	// submit coalescer; statusCache holds the last full status reply
	// for degraded service under pressure.
	gate    *overload.Gate
	submitq chan pendingSubmit

	statusMu    sync.Mutex
	statusCache *wire.StatusReply

	// availMu guards avail, the status reply's per-demand achieved
	// availability (see achieved).
	availMu sync.Mutex
	avail   map[*demand.Demand]availMemo

	// Session accounting: every handleConn goroutine is registered so
	// Serve teardown can close live sessions and drain in-flight
	// requests instead of racing them.
	sessMu   sync.Mutex
	conns    map[*wire.Conn]struct{}
	sessions sync.WaitGroup
}

// pendingSubmit is one TypeSubmit request parked for batch coalescing;
// the submitter's gate slot travels with it and is released by the
// coalescer.
type pendingSubmit struct {
	conn  *wire.Conn
	seq   uint64
	sub   *wire.Submit
	start time.Time
}

// New creates a controller.
func New(cfg Config) (*Controller, error) {
	if cfg.Net == nil || cfg.Tunnels == nil {
		return nil, fmt.Errorf("controller: Net and Tunnels are required")
	}
	if cfg.MaxFail <= 0 {
		cfg.MaxFail = 2
	}
	if cfg.BackupDepth <= 0 {
		cfg.BackupDepth = 1
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	c := &Controller{
		cfg:       cfg,
		logf:      logf,
		scheduler: bate.NewScheduler(),
		st:        store.NewState(),
		brokers:   make(map[string]*wire.Conn),
		drained:   make(map[topo.LinkID]bool),
		routes:    make(map[[2]topo.NodeID][]route),
		avail:     make(map[*demand.Demand]availMemo),
		conns:     make(map[*wire.Conn]struct{}),
	}
	if cfg.Overload != nil {
		c.gate = overload.NewGate(*cfg.Overload)
		c.submitq = make(chan pendingSubmit, 256)
	}
	if cfg.Store != nil {
		// Durable restart / warm failover: resume with the replayed state
		// exactly as the dead master acked it.
		c.st = cfg.Store.Restored()
		c.restored = len(c.st.Demands) > 0
		if c.restored {
			logf("controller: restored %d demands, epoch %d, %d links down, next id %d from %s",
				len(c.st.Demands), c.st.Epoch, len(c.st.LinkDown), c.st.NextID, cfg.Store.Dir())
		}
	}
	return c, nil
}

// Serve accepts controller connections on ln until ctx is cancelled
// or ln is closed.
func (c *Controller) Serve(ctx context.Context, ln net.Listener) error {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	if c.restored {
		// Re-prime the scheduler over the restored demand book so backups
		// exist and the warm-start basis is seeded before traffic arrives.
		go func() {
			if err := c.Reschedule(); err != nil {
				c.logf("controller: post-restore reschedule: %v", err)
			}
		}()
	}
	if c.cfg.SchedulePeriod > 0 {
		go c.scheduleLoop(ctx)
	}
	if c.cfg.Store != nil && c.cfg.CompactEvery > 0 {
		go c.compactLoop(ctx)
	}
	if len(c.cfg.Maintenance) > 0 {
		go c.maintenanceLoop(ctx)
	}
	if c.gate != nil {
		go c.coalesceLoop(ctx)
	}
	defer c.drainSessions()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		conn := wire.New(nc)
		// Sessions are pipelined (batch submits, withdraw bursts,
		// status polls), so replies coalesce into one flush per burst.
		// Enabled here, before the conn is registered for teardown:
		// EnableCoalescing must not race a drainSessions Close.
		conn.EnableCoalescing()
		c.sessMu.Lock()
		c.conns[conn] = struct{}{}
		c.sessMu.Unlock()
		c.sessions.Add(1)
		go func() {
			defer c.sessions.Done()
			defer func() {
				c.sessMu.Lock()
				delete(c.conns, conn)
				c.sessMu.Unlock()
			}()
			c.handleConn(ctx, conn)
		}()
	}
}

// drainSessions runs at Serve teardown: it sheds every queued
// admission waiter, closes the live session connections (unblocking
// their reader goroutines), and waits for every in-flight request
// handler to finish. Shutdown therefore drains, never races.
func (c *Controller) drainSessions() {
	if c.gate != nil {
		c.gate.Close()
	}
	c.sessMu.Lock()
	for conn := range c.conns {
		conn.Close()
	}
	c.sessMu.Unlock()
	c.sessions.Wait()
}

func (c *Controller) scheduleLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.SchedulePeriod)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			// Non-urgent work yields to admission under pressure: a
			// deferred reschedule costs allocation freshness, a starved
			// request path costs clients. The next calm tick catches up.
			if c.gate != nil && c.gate.Overloaded() {
				mDeferredResched.Inc()
				c.logf("controller: reschedule deferred under overload")
				continue
			}
			if err := c.Reschedule(); err != nil {
				c.logf("controller: reschedule: %v", err)
			}
		}
	}
}

func (c *Controller) compactLoop(ctx context.Context) {
	t := time.NewTicker(c.cfg.CompactEvery)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := c.CompactStore(); err != nil {
				c.logf("controller: compact: %v", err)
			}
		}
	}
}

// CompactStore snapshots the controller's state into the store and
// trims the WAL. Mutations are held off for the duration so no acked
// record can fall between the snapshot and the trim.
func (c *Controller) CompactStore() error {
	if c.cfg.Store == nil {
		return fmt.Errorf("controller: no store configured")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	before := c.cfg.Store.WALRecords()
	if err := c.cfg.Store.Compact(c.st); err != nil {
		return err
	}
	c.logf("controller: compacted store: %d WAL records folded into snapshot (%d demands)",
		before, len(c.st.Demands))
	return nil
}

func (c *Controller) handleConn(ctx context.Context, conn *wire.Conn) {
	defer conn.Close()
	switch {
	case c.cfg.FrameTimeout > 0:
		conn.SetIdleTimeout(c.cfg.FrameTimeout)
	case c.cfg.FrameTimeout == 0:
		conn.SetIdleTimeout(30 * time.Second)
	}
	hello, err := conn.Recv()
	if err != nil {
		countRecvErr(err)
		return
	}
	if hello.Type != wire.TypeHello || hello.Hello == nil {
		conn.Send(&wire.Message{Type: wire.TypeError, Error: "expected hello"})
		return
	}
	switch hello.Hello.Role {
	case "broker":
		c.serveBroker(conn, hello.Hello.DC)
	case "client":
		c.serveClient(conn)
	default:
		conn.Send(&wire.Message{Type: wire.TypeError, Error: "unknown role " + hello.Hello.Role})
	}
}

func (c *Controller) serveBroker(conn *wire.Conn, dc string) {
	if _, ok := c.cfg.Net.NodeByName(dc); !ok {
		conn.Send(&wire.Message{Type: wire.TypeError, Error: "unknown DC " + dc})
		return
	}
	c.mu.Lock()
	c.brokers[dc] = conn
	// Late joiner gets the current allocation immediately, queued before
	// c.mu is released: a push made after the unlock then queues behind
	// it, and the broker never applies an older snapshot last. The
	// session's coalescing writer makes the Send an enqueue.
	conn.Send(c.allocMessagesLocked(c.st.Current, false, []string{dc})[0])
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		if c.brokers[dc] == conn {
			delete(c.brokers, dc)
		}
		c.mu.Unlock()
	}()
	for {
		m, err := conn.Recv()
		if err != nil {
			countRecvErr(err)
			return
		}
		switch m.Type {
		case wire.TypeLinkEvent:
			c.onLinkEvent(m.LinkEvent)
		case wire.TypeStats:
			// Monitoring input; logged only.
			c.logf("controller: stats from %s: %d tunnels", dc, len(m.Stats.Rates))
		case wire.TypePing:
			// Echoed Seq makes Ping/Pong a barrier: when the reply
			// arrives, every earlier message on this session — link
			// events included — has been processed.
			conn.Send(&wire.Message{Type: wire.TypePong, Seq: m.Seq})
		case wire.TypePong:
		default:
			c.logf("controller: broker %s sent %s", dc, m.Type)
		}
	}
}

func (c *Controller) serveClient(conn *wire.Conn) {
	client := ""
	if addr := conn.RemoteAddr(); addr != nil {
		client = addr.String()
	}
	for {
		m, err := conn.Recv()
		if err != nil {
			countRecvErr(err)
			return
		}
		c.handleClientMsg(conn, client, m)
	}
}

// msgPriority maps a client message type to its admission class:
// withdrawals are never shed (dropping one leaks booked bandwidth),
// submissions cost a customer, status polls cost only observability.
func msgPriority(t wire.Type) overload.Priority {
	switch t {
	case wire.TypeWithdraw:
		return overload.PCritical
	case wire.TypeStatus:
		return overload.PStatus
	}
	return overload.PSubmit
}

// handleClientMsg runs one client request through the admission gate
// (when configured) and dispatches it. Every shed is answered with an
// explicit TypeRetryAfter frame carrying the backoff hint and reason.
func (c *Controller) handleClientMsg(conn *wire.Conn, client string, m *wire.Message) {
	if c.gate == nil {
		c.dispatchClient(conn, m)
		return
	}
	// Degraded status under pressure: answer from the last full reply
	// without competing for an execution slot. Correct-but-stale beats
	// shed — a poll never observes anything atomic anyway.
	if m.Type == wire.TypeStatus && c.gate.Overloaded() {
		if cached := c.cachedStatus(); cached != nil {
			mStatusSnapshot.Inc()
			conn.Send(&wire.Message{Type: wire.TypeStatusReply, Seq: m.Seq, Status: cached})
			return
		}
	}
	dec := c.gate.Acquire(client, msgPriority(m.Type), time.Duration(m.DeadlineMs)*time.Millisecond)
	if !dec.OK {
		conn.Send(&wire.Message{Type: wire.TypeRetryAfter, Seq: m.Seq,
			RetryAfter: &wire.RetryAfter{RetryAfterMs: dec.RetryAfterMs, Reason: dec.Reason}})
		return
	}
	// Under sustained overload, single submits coalesce into a shared
	// AdmitBatch: one lock acquisition and one admission-work unit
	// amortize over the whole batch.
	if m.Type == wire.TypeSubmit && m.Submit != nil && c.submitq != nil && c.gate.Overloaded() {
		select {
		case c.submitq <- pendingSubmit{conn: conn, seq: m.Seq, sub: m.Submit, start: time.Now()}:
			return // the coalescer answers and releases the slot
		default:
			// Coalescer saturated; fall through to the direct path.
		}
	}
	start := time.Now()
	c.dispatchClient(conn, m)
	c.gate.Release(time.Since(start))
}

// dispatchClient is the ungated request dispatch.
func (c *Controller) dispatchClient(conn *wire.Conn, m *wire.Message) {
	switch m.Type {
	case wire.TypeSubmit:
		// The reply carries the controller-assigned demand id;
		// clients correlate via Seq.
		c.stubDelay()
		res := c.submit(m.Submit)
		conn.Send(&wire.Message{Type: wire.TypeAdmitResult, Seq: m.Seq, AdmitResult: res})
	case wire.TypeSubmitBatch:
		c.stubDelay()
		res := c.submitBatch(m.SubmitBatch)
		conn.Send(&wire.Message{Type: wire.TypeAdmitBatchResult, Seq: m.Seq, AdmitBatchResult: res})
	case wire.TypeWithdraw:
		if err := c.withdraw(m.WithdrawID); err != nil {
			conn.Send(&wire.Message{Type: wire.TypeError, Seq: m.Seq, Error: err.Error()})
		} else {
			conn.Send(&wire.Message{Type: wire.TypePong, Seq: m.Seq})
		}
	case wire.TypeStatus:
		reply := c.status()
		c.setStatusCache(reply)
		conn.Send(&wire.Message{Type: wire.TypeStatusReply, Seq: m.Seq, Status: reply})
	default:
		conn.Send(&wire.Message{Type: wire.TypeError, Error: "unexpected " + string(m.Type)})
	}
}

// stubDelay runs the stub admission's work unit, if the test seam is
// set. It runs outside the controller lock so capacity scales with the
// concurrency ceiling, as real solver work would.
func (c *Controller) stubDelay() {
	if c.stubWork != nil {
		c.stubWork()
	}
}

func (c *Controller) setStatusCache(r *wire.StatusReply) {
	c.statusMu.Lock()
	c.statusCache = r
	c.statusMu.Unlock()
}

func (c *Controller) cachedStatus() *wire.StatusReply {
	c.statusMu.Lock()
	defer c.statusMu.Unlock()
	return c.statusCache
}

// coalesceLoop is the submit coalescer: it greedily drains whatever
// single submissions are parked on submitq into one AdmitBatch call.
// Each item arrived holding a gate slot; the coalescer answers each
// submitter individually (index-aligned) and releases the slots with
// the amortized latency, which is what lets the AIMD ceiling see the
// improvement coalescing buys.
func (c *Controller) coalesceLoop(ctx context.Context) {
	const maxCoalesce = 64
	for {
		var first pendingSubmit
		select {
		case <-ctx.Done():
			c.drainSubmitQueue()
			return
		case first = <-c.submitq:
		}
		batch := []pendingSubmit{first}
		for len(batch) < maxCoalesce {
			grab := false
			select {
			case p := <-c.submitq:
				batch = append(batch, p)
				grab = true
			default:
			}
			if !grab {
				break
			}
		}
		c.runCoalesced(batch)
	}
}

// drainSubmitQueue answers every parked submission with an explicit
// retry-after at shutdown: a request that entered the gate is never
// silently dropped.
func (c *Controller) drainSubmitQueue() {
	for {
		select {
		case p := <-c.submitq:
			p.conn.Send(&wire.Message{Type: wire.TypeRetryAfter, Seq: p.seq,
				RetryAfter: &wire.RetryAfter{RetryAfterMs: 100, Reason: "shutdown"}})
			c.gate.Release(time.Since(p.start))
		default:
			return
		}
	}
}

func (c *Controller) runCoalesced(batch []pendingSubmit) {
	c.stubDelay() // one work unit amortized over the whole batch
	subs := make([]wire.Submit, len(batch))
	for i, p := range batch {
		subs[i] = *p.sub
	}
	res := c.submitBatch(subs)
	if len(batch) > 1 {
		mSubmitCoalesced.Add(int64(len(batch) - 1))
	}
	for i, p := range batch {
		r := res[i]
		p.conn.Send(&wire.Message{Type: wire.TypeAdmitResult, Seq: p.seq, AdmitResult: &r})
		c.gate.Release(time.Since(p.start))
	}
}

// submit admits one demand: a batch of one.
func (c *Controller) submit(s *wire.Submit) *wire.AdmitResult {
	if s == nil {
		return &wire.AdmitResult{Admitted: false, Method: "invalid"}
	}
	return &c.submitBatch([]wire.Submit{*s})[0]
}

// demandMatches reports whether an existing single-pair demand is the
// same submission (used for idempotent retries).
func demandMatches(d *demand.Demand, src, dst topo.NodeID, s *wire.Submit) bool {
	return len(d.Pairs) == 1 &&
		d.Pairs[0].Src == src && d.Pairs[0].Dst == dst &&
		d.Pairs[0].Bandwidth == s.Bandwidth && d.Target == s.Target
}

// submitBatch runs admission control (§3.2) for several demands as one
// batch: candidates are speculated in parallel and committed with
// decisions identical to submitting them one at a time in order (see
// bate.AdmitBatch). Results are index-aligned with the request. Each
// pass of decided admits is one durable group with its push's epoch;
// the allocation is pushed to brokers after every pass that admitted
// anything. A pass ends early at a conjecture admit, which a
// scheduling round follows.
func (c *Controller) submitBatch(subs []wire.Submit) []wire.AdmitResult {
	out := make([]wire.AdmitResult, len(subs))
	if len(subs) == 0 {
		return out
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	// Validate, answer resubmissions and assign ids up front; only
	// fresh valid entries reach admission.
	batch := make([]*demand.Demand, 0, len(subs))
	slot := make([]int, 0, len(subs)) // batch index -> reply index
	taken := make(map[int]bool, len(subs))
	for i := range subs {
		s := &subs[i]
		src, ok1 := c.cfg.Net.NodeByName(s.Src)
		dst, ok2 := c.cfg.Net.NodeByName(s.Dst)
		if !ok1 || !ok2 || src == dst || s.Bandwidth <= 0 {
			out[i] = wire.AdmitResult{Admitted: false, Method: "invalid"}
			continue
		}
		// Idempotent resubmission: a client retrying after a controller
		// failover echoes the id it was assigned (DemandID 0 is the wire
		// sentinel for "unassigned"). If that demand is already on the
		// book with the same parameters, answer without double-admitting.
		if s.DemandID != 0 {
			if prev, ok := c.st.Demands[s.DemandID]; ok && demandMatches(prev, src, dst, s) {
				out[i] = wire.AdmitResult{Admitted: true, DemandID: prev.ID, Method: "duplicate"}
				continue
			}
		}
		id := c.st.AllocateID()
		for id >= 0 && taken[id] {
			id = c.st.AllocateID()
		}
		if id < 0 {
			out[i] = wire.AdmitResult{Admitted: false, Method: "id-space-full"}
			continue
		}
		taken[id] = true
		batch = append(batch, &demand.Demand{
			ID:     id,
			Pairs:  []demand.PairDemand{{Src: src, Dst: dst, Bandwidth: s.Bandwidth}},
			Target: s.Target, Charge: s.Charge, RefundFrac: s.RefundFrac,
		})
		slot = append(slot, i)
	}
	// Commit each decided prefix. A conjecture admit ends a batch: its
	// temporary allocation may be below b_d (§3.2 footnote 5), so it is
	// pushed and a round runs before the rest is re-batched against the
	// rescheduled state.
	size := len(batch)
	admitted, spec, serial := 0, 0, 0
	for len(batch) > 0 {
		br, err := c.admitLocked(batch)
		if err != nil {
			c.logf("controller: admit: %v", err)
			for _, i := range slot {
				out[i] = wire.AdmitResult{Admitted: false, Method: "error"}
			}
			break
		}
		var group []store.Record
		var acked []int // reply indexes of the admits in group
		for bi, dec := range br.Decisions {
			i := slot[bi]
			out[i] = wire.AdmitResult{
				Admitted: dec.Result.Admitted,
				Method:   string(dec.Result.Method),
				DelayMs:  float64(dec.Result.Elapsed.Microseconds()) / 1000,
			}
			if dec.Result.Admitted {
				out[i].DemandID = dec.Demand.ID
				group = append(group, store.Admit{Demand: dec.Demand, Rows: dec.Result.NewAlloc})
				acked = append(acked, i)
			}
		}
		spec += br.SpecReused
		serial += br.SerialFallbacks
		// Durability before the ack, fail closed: the pass's admits and
		// its push's epoch are one group, and admits that cannot be made
		// durable are refused, never acked on hope.
		if len(group) > 0 {
			if err := c.commit(append(group, c.nextEpoch())...); err != nil {
				for _, i := range acked {
					out[i] = wire.AdmitResult{Admitted: false, Method: "store-error"}
				}
			} else {
				admitted += len(acked)
				c.pushAllLocked(false)
				if br.EndsInConjecture() {
					if err := c.rescheduleLocked(); err != nil {
						c.logf("controller: conjecture reschedule (allocation kept): %v", err)
					}
				}
			}
		}
		slot = slot[len(br.Decisions):]
		batch = br.Deferred
	}
	if size > 1 {
		c.logf("controller: batch of %d: %d admitted, %d speculative, %d serial fallback",
			size, admitted, spec, serial)
	}
	return out
}

// admitLocked decides a batch against the current book: bate.AdmitBatch,
// or the stub test seam, which admits everything without rows.
func (c *Controller) admitLocked(batch []*demand.Demand) (*bate.BatchResult, error) {
	if c.stubWork != nil {
		br := &bate.BatchResult{}
		for _, d := range batch {
			br.Decisions = append(br.Decisions, bate.BatchDecision{
				Demand: d, Result: &bate.AdmissionResult{Admitted: true, Method: "stub"},
			})
		}
		return br, nil
	}
	in, active := c.inputLocked()
	return bate.AdmitBatch(in, c.st.Current, active, batch, bate.BatchOptions{MaxFail: c.cfg.MaxFail})
}

func (c *Controller) withdraw(id int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.st.Demands[id]; !ok {
		return nil // unknown id: idempotent no-op
	}
	if err := c.commit(store.Withdraw{ID: id}, c.nextEpoch()); err != nil {
		return fmt.Errorf("withdraw not durable: %v", err)
	}
	c.pushAllLocked(false)
	return nil
}

// commit is the one way the controller changes st: it appends rs to
// the store's WAL as one group, one write and one fsync (with the
// appendDurable retries), and then applies them in order. A group
// holding an admit, withdraw or schedule record fails closed: if the
// append fails, nothing is applied and the error is returned. A group
// of only link and epoch records is best-effort: those are
// reconstructible from broker reconnects and are not client-visible
// promises, so a failed append is logged and the group applied anyway.
func (c *Controller) commit(rs ...store.Record) error {
	if c.cfg.Store != nil {
		what := rs[0].Type().String()
		if err := c.appendDurable(what, func() error { return c.cfg.Store.Append(rs...) }); err != nil {
			c.logf("controller: store %s: %v", what, err)
			for _, r := range rs {
				if t := r.Type(); t != store.RecLink && t != store.RecEpoch {
					return err
				}
			}
		}
	}
	for _, r := range rs {
		c.st.Apply(r)
	}
	return nil
}

// nextEpoch is the Epoch record of the next broker push. Callers commit
// it in the same group as the transition the push announces.
func (c *Controller) nextEpoch() store.Epoch {
	return store.Epoch{Epoch: c.st.Epoch + 1}
}

// inputLocked builds the alloc.Input over the admitted demands in a
// deterministic order.
func (c *Controller) inputLocked() (*alloc.Input, []*demand.Demand) {
	active := make([]*demand.Demand, 0, len(c.st.Demands))
	for _, d := range c.st.Demands {
		active = append(active, d)
	}
	sort.Slice(active, func(i, j int) bool { return active[i].ID < active[j].ID })
	in := &alloc.Input{Net: c.cfg.Net, Tunnels: c.cfg.Tunnels, Demands: active}
	if len(c.drained) > 0 {
		// Drained links are invisible capacity to every solver-backed
		// path — scheduling, admission, hardening, backups, recovery —
		// without being marked down: the link still forwards whatever
		// the pre-drain allocation put on it until the reschedule lands.
		in.Drained = make([]topo.LinkID, 0, len(c.drained))
		for id := range c.drained {
			in.Drained = append(in.Drained, id)
		}
		sort.Slice(in.Drained, func(i, j int) bool { return in.Drained[i] < in.Drained[j] })
	}
	return in, active
}

// linkByNames resolves a DC name pair to the link between them.
func (c *Controller) linkByNames(srcDC, dstDC string) (topo.Link, error) {
	src, ok1 := c.cfg.Net.NodeByName(srcDC)
	dst, ok2 := c.cfg.Net.NodeByName(dstDC)
	if !ok1 || !ok2 {
		return topo.Link{}, fmt.Errorf("controller: unknown DC pair %s-%s", srcDC, dstDC)
	}
	link, ok := c.cfg.Net.LinkBetween(src, dst)
	if !ok {
		return topo.Link{}, fmt.Errorf("controller: no link %s-%s", srcDC, dstDC)
	}
	return link, nil
}

// DrainLink marks the link between two DCs as drained for upcoming
// maintenance and reschedules so traffic moves off it while it is
// still up. An error means the link does not exist; a failed or gated
// reschedule keeps the drain marked (the next periodic round honors
// it) and is only logged — stale but feasible beats absent, same as
// the periodic loop. Idempotent.
func (c *Controller) DrainLink(srcDC, dstDC string) error {
	link, err := c.linkByNames(srcDC, dstDC)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.drained[link.ID] {
		c.mu.Unlock()
		return nil
	}
	c.drained[link.ID] = true
	c.mu.Unlock()
	mDrains.Inc()
	c.logf("controller: maintenance drain %s-%s: rescheduling traffic off the link", srcDC, dstDC)
	if err := c.Reschedule(); err != nil {
		c.logf("controller: drain reschedule (allocation kept): %v", err)
	}
	return nil
}

// UndrainLink returns a drained link to service and reschedules so
// traffic can use it again. Idempotent; same error contract as
// DrainLink.
func (c *Controller) UndrainLink(srcDC, dstDC string) error {
	link, err := c.linkByNames(srcDC, dstDC)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if !c.drained[link.ID] {
		c.mu.Unlock()
		return nil
	}
	delete(c.drained, link.ID)
	c.mu.Unlock()
	mUndrains.Inc()
	c.logf("controller: maintenance complete %s-%s: link back in service", srcDC, dstDC)
	if err := c.Reschedule(); err != nil {
		c.logf("controller: undrain reschedule (allocation kept): %v", err)
	}
	return nil
}

// DrainedLinks returns the currently drained link ids in ascending
// order (empty when nothing is drained).
func (c *Controller) DrainedLinks() []topo.LinkID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]topo.LinkID, 0, len(c.drained))
	for id := range c.drained {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// maintenanceLoop walks the configured windows by wall clock: each
// window contributes a drain transition at Start-Lead and an undrain
// at End. Transitions already in the past fire immediately (in
// order), so a controller started mid-window still drains.
func (c *Controller) maintenanceLoop(ctx context.Context) {
	type transition struct {
		at       time.Time
		src, dst string
		drain    bool
	}
	var ts []transition
	for _, m := range c.cfg.Maintenance {
		lead := m.Lead
		if lead <= 0 {
			lead = 30 * time.Second
		}
		if !m.End.After(m.Start) {
			c.logf("controller: maintenance window %s-%s has end <= start; skipped", m.SrcDC, m.DstDC)
			continue
		}
		ts = append(ts,
			transition{at: m.Start.Add(-lead), src: m.SrcDC, dst: m.DstDC, drain: true},
			transition{at: m.End, src: m.SrcDC, dst: m.DstDC, drain: false})
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].at.Before(ts[j].at) })
	for _, tr := range ts {
		if wait := time.Until(tr.at); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return
			case <-t.C:
			}
		}
		if ctx.Err() != nil {
			return
		}
		var err error
		if tr.drain {
			err = c.DrainLink(tr.src, tr.dst)
		} else {
			err = c.UndrainLink(tr.src, tr.dst)
		}
		if err != nil {
			c.logf("controller: maintenance %s-%s: %v", tr.src, tr.dst, err)
		}
	}
}

// Reschedule runs the periodic optimization (§3.3): the scheduling LP
// plus backup precomputation, then pushes to brokers.
func (c *Controller) Reschedule() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rescheduleLocked()
}

// rescheduleLocked is Reschedule's round, run under c.mu.
func (c *Controller) rescheduleLocked() error {
	in, _ := c.inputLocked()
	if len(in.Demands) == 0 {
		// Nothing to schedule, and no allocation to replace: a withdraw
		// takes a demand's rows with it.
		_ = c.commit(c.nextEpoch()) // best-effort: never refused
		c.pushAllLocked(false)
		return nil
	}
	sopts := bate.ScheduleOptions{
		MaxFail: c.cfg.MaxFail, Gate: c.cfg.SolverGate, Partition: c.cfg.Partition,
	}
	if c.cfg.SolverWatch != nil {
		sopts.Cancel = c.cfg.SolverWatch("schedule")
	}
	a, stats, err := c.scheduler.Schedule(in, sopts)
	if err != nil {
		// A gated or failed solve keeps the current allocation — stale
		// but feasible beats absent.
		return err
	}
	start := "cold"
	switch {
	case stats.WarmStarted:
		start = "warm"
	case stats.WarmFallback != "":
		start = "cold: warm basis abandoned, " + stats.WarmFallback
	}
	if stats.PartitionFallback != "" {
		start = "global: partition declined, " + stats.PartitionFallback + "; " + start
	}
	// Logged when the round ends, so the line can say what the backup
	// pass did if the round got that far.
	round := fmt.Sprintf("controller: scheduled %d demands: %d vars, %d constraints, %d iterations (%s start) in %v (class cache %d hit/%d miss, %d workers)",
		len(in.Demands), stats.Variables, stats.Constraints, stats.Iterations, start, stats.Elapsed,
		stats.ClassCacheHits, stats.ClassCacheMisses, stats.PoolWorkers)
	defer func() {
		c.logf("%s", round)
		if stats.Partitioned {
			c.logf("controller: partitioned round: %d regions, %d cut demands, gap bound %.4f",
				stats.Regions, stats.CutDemands, stats.GapBound)
		}
	}()
	if hardened, herr := bate.Harden(in, bate.ScheduleOptions{MaxFail: c.cfg.MaxFail}, a); herr == nil {
		a = hardened
	} else {
		mHardenFailures.Inc()
		round += fmt.Sprintf("; harden failed: %v, relaxed allocation pushed", herr)
	}
	if err := c.commit(store.Schedule{Alloc: a}, c.nextEpoch()); err != nil {
		return fmt.Errorf("schedule not durable: %w", err)
	}
	// Push before backing up: brokers enforce the certified allocation
	// as soon as it is durable. c.mu is held throughout, so nothing
	// reads c.backups between the push and the new set.
	c.pushAllLocked(false)
	budget := c.cfg.BackupBudget
	if budget <= 0 {
		budget = in.Net.NumLinks() * 4
	}
	backupStart := time.Now()
	bs, err := bate.PrecomputeBackups(in, c.cfg.BackupDepth, budget)
	if err != nil {
		return err
	}
	round += fmt.Sprintf("; backups: %d combos, %d fits solved, %d reused, %v",
		bs.Len(), bs.FitsSolved, bs.FitsReused, time.Since(backupStart).Round(time.Millisecond))
	// The optimal rung's warm start, planned from the last one. Like the
	// backup pass it is not gated; a failed plan leaves the rung cold.
	planStart := time.Now()
	if pivots, warm, err := bs.PlanRoot(in, c.backups); err != nil {
		round += fmt.Sprintf("; recovery root: %v", err)
	} else {
		round += fmt.Sprintf("; recovery root: %d pivots (%s) in %v", pivots, warmth(warm), time.Since(planStart).Round(time.Microsecond))
	}
	c.backups = bs
	return nil
}

// warmth names how a solve started.
func warmth(warm bool) string {
	if warm {
		return "warm"
	}
	return "cold"
}

// onLinkEvent reacts to a broker's link report: a failure activates
// the precomputed backup allocation (§3.4); a repair restores the
// scheduled allocation.
func (c *Controller) onLinkEvent(ev *wire.LinkEvent) {
	if ev == nil {
		return
	}
	src, ok1 := c.cfg.Net.NodeByName(ev.SrcDC)
	dst, ok2 := c.cfg.Net.NodeByName(ev.DstDC)
	if !ok1 || !ok2 {
		return
	}
	link, ok := c.cfg.Net.LinkBetween(src, dst)
	if !ok {
		return
	}
	takenUp := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	// Link records are best-effort: never refused. The link record and
	// the push's epoch are one group, so a failure's recovery runs
	// before either is written.
	rec := store.Link{ID: link.ID, Up: ev.Up}
	if ev.Up {
		_ = c.commit(rec, c.nextEpoch())
		c.pushAllLocked(false)
		return
	}
	down := []topo.LinkID{link.ID}
	for id := range c.st.LinkDown {
		if id != link.ID {
			down = append(down, id)
		}
	}
	// Deadline-bounded recovery ladder: precomputed backup → budgeted
	// optimal → greedy floor. A recovery always lands within the
	// deadline; only its quality degrades.
	in, _ := c.inputLocked()
	res, stage, err := bate.Recover(in, down, bate.RecoverOptions{
		Backups:  c.backups,
		Deadline: c.cfg.RecoveryDeadline,
		Gate:     c.cfg.SolverGate,
		Logf:     c.logf,
	})
	if err != nil {
		_ = c.commit(rec)
		c.logf("controller: recovery: %v", err)
		return
	}
	_ = c.commit(rec, c.nextEpoch())
	// Not res.Elapsed: on a backup hit that is what the plan's
	// precomputation took at the last round.
	effort := ""
	if stage == bate.StageOptimal {
		effort = fmt.Sprintf(", %d pivots from a %s root on %s", res.Iterations, warmth(res.WarmRoot), res.Model)
	}
	c.logf("controller: recovered %d-link failure via %s stage in %v (profit %.1f%s)",
		len(down), stage, time.Since(takenUp), res.Profit, effort)
	c.pushAllocationLocked(res.Alloc, true)
}

// pushAllLocked pushes the scheduled allocation to every broker.
func (c *Controller) pushAllLocked(backup bool) {
	c.pushAllocationLocked(c.st.Current, backup)
}

// pushAllocationLocked sends a to every connected broker under the
// current epoch. It writes nothing: the caller has committed the push's
// Epoch record (nextEpoch) in the group of the transition that caused
// it.
func (c *Controller) pushAllocationLocked(a alloc.Allocation, backup bool) {
	dcs := make([]string, 0, len(c.brokers))
	for dc := range c.brokers {
		dcs = append(dcs, dc)
	}
	for i, msg := range c.allocMessagesLocked(a, backup, dcs) {
		dc, conn := dcs[i], c.brokers[dcs[i]]
		if err := conn.Send(msg); err != nil {
			c.logf("controller: push to %s: %v", dc, err)
			// Slow-peer isolation: a broker whose bounded send queue
			// stayed full past the grace is evicted so it cannot pin
			// frame buffers or stall future pushes. Its reconnect loop
			// brings it back with a fresh session and the full current
			// allocation.
			if errors.Is(err, wire.ErrSendQueueFull) {
				delete(c.brokers, dc)
				mSlowBrokerEvict.Inc()
				c.logf("controller: evicted slow broker %s", dc)
				go conn.Close() // Close drains briefly; don't hold c.mu for it
			}
		}
	}
}

// route is one tunnel as the brokers see it.
type route struct {
	// hops names the tunnel's DCs, source first. Every update that
	// carries the tunnel shares this slice, so it is read-only.
	hops []string
	// transit lists the DCs that forward the tunnel: the distinct
	// nodes of every hop but the last.
	transit []topo.NodeID
}

// routesLocked returns the routes of the pair's tunnels, in tunnel
// order, building them on the pair's first use.
func (c *Controller) routesLocked(src, dst topo.NodeID) []route {
	key := [2]topo.NodeID{src, dst}
	if rs, ok := c.routes[key]; ok {
		return rs
	}
	n := c.cfg.Net
	tunnels := c.cfg.Tunnels.For(src, dst)
	rs := make([]route, len(tunnels))
	for ti, t := range tunnels {
		nodes := t.Nodes(n)
		r := route{hops: make([]string, len(nodes))}
		for i, v := range nodes {
			r.hops[i] = n.NodeName(v)
			if i < len(nodes)-1 && !slices.Contains(r.transit, v) {
				r.transit = append(r.transit, v)
			}
		}
		rs[ti] = r
	}
	c.routes[key] = rs
	return rs
}

// allocMessagesLocked builds the AllocUpdate of each DC in dcs, index
// aligned, in one walk over the book: every positive-rate tunnel
// allocation goes to the update of each DC that forwards it, in book →
// pair → tunnel order.
func (c *Controller) allocMessagesLocked(a alloc.Allocation, backup bool, dcs []string) []*wire.Message {
	msgs := make([]*wire.Message, len(dcs))
	byNode := make([]*wire.AllocUpdate, c.cfg.Net.NumNodes())
	for i, dc := range dcs {
		u := &wire.AllocUpdate{Epoch: c.st.Epoch, Backup: backup}
		if v, ok := c.cfg.Net.NodeByName(dc); ok {
			byNode[v] = u
		}
		msgs[i] = &wire.Message{Type: wire.TypeAllocUpdate, Alloc: u}
	}
	_, active := c.inputLocked()
	for _, d := range active {
		rows, ok := a[d.ID]
		if !ok {
			continue
		}
		for pi, p := range d.Pairs {
			if pi >= len(rows) {
				continue
			}
			routes := c.routesLocked(p.Src, p.Dst)
			for ti, rate := range rows[pi] {
				if rate <= 0 {
					continue
				}
				label, err := wire.Label(d.ID, ti)
				if err != nil {
					continue
				}
				r := routes[ti]
				ta := wire.TunnelAlloc{Label: label, Hops: r.hops, Rate: rate}
				for _, v := range r.transit {
					if u := byNode[v]; u != nil {
						u.Tunnels = append(u.Tunnels, ta)
					}
				}
			}
		}
	}
	return msgs
}

// Snapshot returns the controller's admitted demand count and epoch,
// for tests and tooling.
func (c *Controller) Snapshot() (demands int, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.st.Demands), c.st.Epoch
}

// OverloadSnapshot returns the admission gate's counters; ok is false
// when overload control is disabled.
func (c *Controller) OverloadSnapshot() (overload.Counters, bool) {
	if c.gate == nil {
		return overload.Counters{}, false
	}
	return c.gate.Snapshot(), true
}

// status reports every admitted demand with its current availability
// estimate under the installed allocation.
func (c *Controller) status() *wire.StatusReply {
	c.mu.Lock()
	in, active := c.inputLocked()
	// Shallow-copy the allocation map: concurrent withdrawals delete
	// entries (the per-demand rows themselves are never mutated in
	// place), and the availability loop below runs unlocked.
	current := make(alloc.Allocation, len(c.st.Current))
	for id, rows := range c.st.Current {
		current[id] = rows
	}
	epoch := c.st.Epoch
	c.availMu.Lock()
	for d := range c.avail {
		if c.st.Demands[d.ID] != d {
			delete(c.avail, d) // bounds the memo to the book
		}
	}
	c.availMu.Unlock()
	c.mu.Unlock()
	reply := &wire.StatusReply{Epoch: epoch, Counters: metrics.Snapshot()}
	for _, d := range active {
		allocated := 0.0
		for pi := range d.Pairs {
			allocated += current.AllocatedFor(d, pi)
		}
		// A demand with no installed allocation has availability 0 by
		// definition; skip the scenario enumeration it would otherwise
		// pay for (status polls are hot under wire load).
		achieved := 0.0
		if allocated > 0 {
			achieved = c.achieved(in, current, d)
		}
		reply.Demands = append(reply.Demands, wire.DemandStatus{
			DemandID:  d.ID,
			Src:       c.cfg.Net.NodeName(d.Pairs[0].Src),
			Dst:       c.cfg.Net.NodeName(d.Pairs[0].Dst),
			Bandwidth: d.TotalBandwidth(),
			Target:    d.Target,
			Achieved:  achieved,
			Allocated: allocated,
		})
	}
	return reply
}

// availMemo is one demand's achieved availability and the rows it was
// computed for. The value depends only on the demand, its rows and the
// controller's fixed network, tunnels and MaxFail, not on link or drain
// state; rows are replaced, never mutated in place, so the same rows
// slice means the same value. Holding the slice keeps its array alive,
// so no other rows can reuse its address while the memo holds it.
type availMemo struct {
	rows     [][]float64
	achieved float64
}

// achieved returns d's achieved availability under a, from the memo
// when d's rows in a are the ones it was computed for. a must hold rows
// for d.
func (c *Controller) achieved(in *alloc.Input, a alloc.Allocation, d *demand.Demand) float64 {
	rows := a[d.ID]
	c.availMu.Lock()
	m, ok := c.avail[d]
	c.availMu.Unlock()
	if ok && len(m.rows) == len(rows) && &m.rows[0] == &rows[0] {
		return m.achieved
	}
	achieved, err := alloc.AchievedAvailability(in, a, d, c.cfg.MaxFail)
	if err != nil {
		achieved = 0
	}
	c.availMu.Lock()
	c.avail[d] = availMemo{rows: rows, achieved: achieved}
	c.availMu.Unlock()
	return achieved
}
