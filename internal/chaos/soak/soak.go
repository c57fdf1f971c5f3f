// Package soak drives the full controller stack — a three-replica
// Paxos election, the winning controller with a durable store, per-DC
// brokers and a demand-submitting client — under a seeded fault
// schedule covering all three chaos fronts (wire, filesystem, solver
// budget). The same seed replays the exact same run: every fault
// decision is a pure function of (seed, edge, count), never of
// wall-clock time, so the store's compacted end state is byte-identical
// across replays.
package soak

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"time"

	"bate/internal/broker"
	"bate/internal/chaos"
	"bate/internal/controller"
	"bate/internal/metrics"
	"bate/internal/overload"
	"bate/internal/partition"
	"bate/internal/paxos"
	"bate/internal/routing"
	"bate/internal/store"
	"bate/internal/topo"
	"bate/internal/wire"
)

// Config parameterizes one soak run.
type Config struct {
	// Seed drives every fault decision; the same seed replays the same
	// run byte-for-byte.
	Seed int64
	// Dir is the store directory (required; must be empty or fresh).
	Dir string
	// Demands is how many BA demands the client submits (default 6).
	Demands int
	// RecoveryDeadline bounds each link-failure recovery (default 750ms).
	RecoveryDeadline time.Duration
	// ArtifactPath, when set, receives the fault schedule as JSON before
	// the run starts — a failing CI seed leaves its schedule behind.
	ArtifactPath string
	// Partitions, when > 1, runs the controller's reschedules through
	// hierarchical (partitioned) scheduling. The decomposition is
	// deterministic, so a partitioned run of the same seed must still
	// replay byte-identically.
	Partitions int
	// Overload enables the admission gate with the chaos admission
	// budget as its shed gate: every Nth sheddable request is shed with
	// an explicit retry-after, on a counter cadence — never from queue
	// state, which would replay differently — so the same seed still
	// reaches a byte-identical end state through the retries.
	Overload bool
	// MidSolvePivots, when > 1, arms the solver budget's mid-solve
	// front: every Nth solver-backed operation is aborted from inside
	// the pivot loop (via the controller's SolverWatch hook) instead of
	// gated at the door. Like the gate, the cadence is a deterministic
	// counter, so the same seed replays byte-identically; zero leaves
	// the pivot watcher inert and digests unchanged.
	MidSolvePivots int
	// Maintenance arms the proactive-drain end phase: after the final
	// status, the first planned link is drained (rescheduling moves
	// traffic off it while it is still up), verified empty, and
	// undrained. Both reschedules consult the seeded solver budget —
	// a gated one keeps the allocation, like any periodic round — and
	// the phase runs after every shared phase so the solver-gate call
	// indices of a non-maintenance run of the same seed are untouched.
	Maintenance bool
	// Logf receives narrative; nil is silent.
	Logf func(string, ...interface{})
}

// Schedule is the JSON fault-schedule artifact: everything needed to
// reason about (or re-run) a failing seed.
type Schedule struct {
	Seed      int64                 `json:"seed"`
	Election  chaos.NetConfig       `json:"election_net"`
	Wire      chaos.NetConfig       `json:"wire_net"`
	FS        chaos.FSConfig        `json:"fs"`
	Solver    chaos.SolverConfig    `json:"solver"`
	Admission chaos.AdmissionConfig `json:"admission"`
	Demands   []DemandPlan          `json:"demands"`
	Events    []LinkEventPlan       `json:"events"`
}

// DemandPlan is one planned client submission.
type DemandPlan struct {
	Src       string  `json:"src"`
	Dst       string  `json:"dst"`
	Bandwidth float64 `json:"bandwidth"`
	Target    float64 `json:"target"`
}

// LinkEventPlan is one planned link up/down report.
type LinkEventPlan struct {
	Src string `json:"src"`
	Dst string `json:"dst"`
	Up  bool   `json:"up"`
}

// Report is what one soak run observed; the caller asserts invariants
// over it. Counter fields are deltas over this run; MaxRecoveryMs is
// the process-wide high-water mark (max gauges do not reset).
type Report struct {
	Seed         int64
	Leader       string
	LeaderAgreed bool

	AckedIDs     []int
	Rejected     int
	WithdrawnIDs []int
	FinalIDs     []int
	FinalEpoch   uint64

	DownEvents    int
	BackupHits    int64
	Optimal       int64
	Greedy        int64
	Fallbacks     int64
	SolverDenials int64
	Reconnects    int64
	StoreRepairs  int64
	AppendRetries int64
	MaxRecoveryMs int64

	// Overload-variant observations: injected shed decisions, total
	// gate sheds, and the retry-after replies the clients actually saw
	// and honored. Sheds on the lossy connection can be lost in
	// transit, so ClientSheds <= GateSheds.
	AdmissionDenials int64
	GateSheds        int64
	ClientSheds      int64

	// Maintenance-variant observations: drain/undrain transitions.
	Drains   int64
	Undrains int64

	// Digest is the sha256 of the compacted snapshot.json — the
	// byte-identical-replay witness.
	Digest string
}

// Run executes one seeded soak and returns its report. Any error is a
// harness failure (an invariant the caller cannot even evaluate).
func Run(cfg Config) (*Report, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("soak: Dir is required")
	}
	if cfg.Demands <= 0 {
		cfg.Demands = 6
	}
	if cfg.RecoveryDeadline <= 0 {
		cfg.RecoveryDeadline = 750 * time.Millisecond
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	inj := chaos.New(cfg.Seed)
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)

	// ---- Fault schedule (written out before anything can fail). ----
	electionCfg := chaos.NetConfig{
		// A brief one-sided partition between replicas 2 and 3: both
		// still reach replica 1, so the quorum holds and the election
		// must converge anyway.
		Partitions: []chaos.Partition{{From: "elector-2", To: "elector-3", Start: 0, End: 300 * time.Millisecond}},
	}
	wireCfg := chaos.NetConfig{
		DelayProb: 0.20, MaxDelay: 30 * time.Millisecond,
		StallProb: 0.10, Stall: 20 * time.Millisecond,
		DropProb: 0.25,
		// Cut broker-DC1's controller session mid-run; the reconnect
		// loop must bring it back and re-sync the epoch.
		Partitions: []chaos.Partition{{From: "broker-DC1", To: "controller", Start: 400 * time.Millisecond, End: 900 * time.Millisecond}},
	}
	fsCfg := chaos.FSConfig{WriteEveryN: 5, SyncEveryN: 7}
	solverCfg := chaos.SolverConfig{EveryN: 2, MidSolveEveryN: cfg.MidSolvePivots}
	admissionCfg := chaos.AdmissionConfig{}
	if cfg.Overload {
		admissionCfg.EveryN = 3
	}

	plans := demandPlans(n, inj, cfg.Demands)
	links := pickLinks(n, inj, 4)
	events := linkEventPlan(n, links)

	if cfg.ArtifactPath != "" {
		sched := Schedule{
			Seed: cfg.Seed, Election: electionCfg, Wire: wireCfg,
			FS: fsCfg, Solver: solverCfg, Admission: admissionCfg,
			Demands: plans, Events: events,
		}
		if err := writeJSON(cfg.ArtifactPath, &sched); err != nil {
			return nil, fmt.Errorf("soak: write artifact: %w", err)
		}
	}

	before := metrics.Snapshot()
	rep := &Report{Seed: cfg.Seed}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// ---- Phase 1: elect a master under a partial partition. ----
	leader, ctrlLn, err := elect(ctx, inj, electionCfg, logf)
	if err != nil {
		return nil, err
	}
	rep.Leader, rep.LeaderAgreed = leader, true
	defer ctrlLn.Close()
	addr := ctrlLn.Addr().String()
	logf("soak: elected master %s", addr)

	// ---- Phase 2: the winner's controller over a chaos-backed store. ----
	fs := chaos.NewFS(fsCfg)
	st, err := store.Open(cfg.Dir, n, store.Options{
		Logf:    logf,
		OpenWAL: func(path string) (store.File, error) { return fs.OpenWAL(path) },
	})
	if err != nil {
		return nil, fmt.Errorf("soak: open store: %w", err)
	}
	defer st.Close()
	budget := chaos.NewSolverBudget(solverCfg)
	var popts *partition.Options
	if cfg.Partitions > 1 {
		popts = &partition.Options{Regions: cfg.Partitions}
	}
	var ovOpts *overload.Options
	if cfg.Overload {
		admitBudget := chaos.NewAdmissionBudget(admissionCfg)
		ovOpts = &overload.Options{
			// Ample concurrency for a serial client: every shed in this
			// soak comes from the seeded budget, never from queue state,
			// which timing could replay differently.
			MaxInflight: 64,
			ShedGate:    func(p overload.Priority) bool { return admitBudget.Gate(p.String()) },
		}
	}
	ctl, err := controller.New(controller.Config{
		Net: n, Tunnels: ts, MaxFail: 2, BackupDepth: 1,
		Store: st, FrameTimeout: 10 * time.Second,
		RecoveryDeadline: cfg.RecoveryDeadline,
		SolverGate:       budget.Gate,
		SolverWatch:      budget.PivotWatcher,
		Partition:        popts,
		Overload:         ovOpts,
		Logf:             logf,
	})
	if err != nil {
		return nil, err
	}
	go ctl.Serve(ctx, ctrlLn)

	// ---- Phase 3: brokers dialing through the chaos wire. ----
	wireNet := chaos.NewNet(inj, wireCfg)
	defer wireNet.Stop()
	wireNet.Start()
	for _, dc := range []string{"DC1", "DC2"} {
		b := broker.New(dc, addr)
		b.SetLogf(func(string, ...interface{}) {})
		edge := "broker-" + dc
		b.SetDialer(func(a string) (*wire.Conn, error) {
			nc, err := wireNet.Dial(edge, "controller", a, 2*time.Second)
			if err != nil {
				return nil, err
			}
			return wire.New(nc), nil
		})
		go b.Run(ctx)
	}

	// ---- Phase 4: client submissions over a lossy connection. ----
	clean, err := dialClean(addr, "client", "")
	if err != nil {
		return nil, fmt.Errorf("soak: clean client dial: %w", err)
	}
	defer clean.Close()
	cl := &chaosClient{net: wireNet, addr: addr}
	defer cl.drop()
	for _, p := range plans {
		id, admitted, err := submitWithRetry(cl, clean, p)
		if err != nil {
			return nil, err
		}
		if admitted {
			rep.AckedIDs = append(rep.AckedIDs, id)
		} else {
			rep.Rejected++
		}
	}
	sort.Ints(rep.AckedIDs)
	logf("soak: %d demands acked, %d rejected", len(rep.AckedIDs), rep.Rejected)

	// ---- Phase 5: reschedule (solver gate index 0 passes) to build
	// the backup set the recovery ladder's first rung needs. ----
	if err := ctl.Reschedule(); err != nil {
		return nil, fmt.Errorf("soak: reschedule: %w", err)
	}

	// ---- Phase 6: the link-failure plan over a clean monitor session
	// (ping/pong as a barrier after every event). ----
	mon, err := newMonitor(addr)
	if err != nil {
		return nil, err
	}
	defer mon.close()
	for _, ev := range events {
		if err := mon.linkEvent(ev); err != nil {
			return nil, fmt.Errorf("soak: link event %v: %w", ev, err)
		}
		if !ev.Up {
			rep.DownEvents++
		}
	}

	// ---- Phase 7: a second reschedule hits the gated solver (index 1
	// denied) and must keep the current allocation. ----
	if err := ctl.Reschedule(); err == nil {
		return nil, fmt.Errorf("soak: second reschedule was not gated")
	} else {
		logf("soak: gated reschedule degraded as expected: %v", err)
	}

	// ---- Phase 7b: with the mid-solve front armed, one more
	// reschedule exercises it. Solve index 2 passes the door gate
	// (EveryN 2 denies odd indices), so its fate is decided purely by
	// the pivot watcher's own cadence — with MidSolvePivots 3 it is
	// doomed from inside the pivot loop and must degrade exactly like
	// a gate denial, keeping the current allocation. ----
	if cfg.MidSolvePivots > 1 {
		err := ctl.Reschedule()
		doomed := 2%cfg.MidSolvePivots == cfg.MidSolvePivots-1
		switch {
		case doomed && err == nil:
			return nil, fmt.Errorf("soak: mid-solve-doomed reschedule was not aborted")
		case !doomed && err != nil:
			return nil, fmt.Errorf("soak: mid-solve reschedule: %w", err)
		case err != nil:
			logf("soak: mid-solve abort degraded as expected: %v", err)
		}
	}

	// ---- Phase 8: withdrawals over the lossy connection. ----
	for _, id := range firstN(rep.AckedIDs, 2) {
		if err := withdrawWithRetry(cl, id); err != nil {
			return nil, err
		}
		rep.WithdrawnIDs = append(rep.WithdrawnIDs, id)
	}

	// ---- Phase 9: final state via the clean connection. ----
	status, err := clean.statusWithRetry()
	if err != nil || status.Status == nil {
		return nil, fmt.Errorf("soak: final status: %v", err)
	}
	rep.FinalIDs = []int{}
	for _, d := range status.Status.Demands {
		rep.FinalIDs = append(rep.FinalIDs, d.DemandID)
	}
	sort.Ints(rep.FinalIDs)
	rep.FinalEpoch = status.Status.Epoch

	// ---- Phase 9b (maintenance variant): proactively drain the first
	// planned link, verify no allocation remains on it, and return it
	// to service. ----
	if cfg.Maintenance {
		l := links[0]
		src, dst := n.NodeName(l.Src), n.NodeName(l.Dst)
		if err := ctl.DrainLink(src, dst); err != nil {
			return nil, fmt.Errorf("soak: drain %s-%s: %w", src, dst, err)
		}
		if got := ctl.DrainedLinks(); len(got) != 1 {
			return nil, fmt.Errorf("soak: drained set %v after DrainLink", got)
		}
		logf("soak: drained %s-%s for maintenance", src, dst)
		if err := ctl.UndrainLink(src, dst); err != nil {
			return nil, fmt.Errorf("soak: undrain %s-%s: %w", src, dst, err)
		}
		if got := ctl.DrainedLinks(); len(got) != 0 {
			return nil, fmt.Errorf("soak: drained set %v after UndrainLink", got)
		}
	}

	// The DC1 partition window guarantees at least one broker
	// reconnect; wait (bounded) for the counter to reflect it.
	waitUntil(10*time.Second, func() bool {
		return metrics.Snapshot()["broker.reconnects"]-before["broker.reconnects"] >= 1
	})

	// ---- Phase 10: compact and fingerprint the end state. Compaction
	// itself runs through the chaos fs, so it gets bounded retries. ----
	var cerr error
	for attempt := 0; attempt < 4; attempt++ {
		if cerr = ctl.CompactStore(); cerr == nil {
			break
		}
		logf("soak: compact attempt %d: %v", attempt, cerr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("soak: compact: %w", cerr)
	}
	raw, err := os.ReadFile(filepath.Join(cfg.Dir, "snapshot.json"))
	if err != nil {
		return nil, fmt.Errorf("soak: read snapshot: %w", err)
	}
	rep.Digest = fmt.Sprintf("%x", sha256.Sum256(raw))

	after := metrics.Snapshot()
	delta := func(k string) int64 { return after[k] - before[k] }
	rep.BackupHits = delta("bate.recovery_backup_hits")
	rep.Optimal = delta("bate.recovery_optimal")
	rep.Greedy = delta("bate.recovery_greedy")
	rep.Fallbacks = delta("bate.recovery_fallback")
	rep.SolverDenials = delta("chaos.solver_denials")
	rep.Reconnects = delta("broker.reconnects")
	rep.StoreRepairs = delta("store.append_repairs")
	rep.AppendRetries = delta("controller.append_retries")
	rep.MaxRecoveryMs = after["bate.recovery_max_ms"]
	rep.AdmissionDenials = delta("chaos.admission_denials")
	rep.GateSheds = delta("overload.shed_total")
	rep.ClientSheds = cl.sheds + clean.sheds
	rep.Drains = delta("controller.drains")
	rep.Undrains = delta("controller.undrains")
	return rep, nil
}

// elect pre-binds three election and three controller listeners, runs
// the three electors through the chaos net, and returns the agreed
// leader plus the winner's (still-bound) controller listener. The two
// losing controller listeners are closed.
func elect(ctx context.Context, inj *chaos.Injector, cfg chaos.NetConfig, logf func(string, ...interface{})) (string, net.Listener, error) {
	enet := chaos.NewNet(inj, cfg)
	enet.Start()
	defer enet.Stop()

	var elns, clns []net.Listener
	closeAll := func(lns []net.Listener) {
		for _, ln := range lns {
			ln.Close()
		}
	}
	for i := 0; i < 3; i++ {
		eln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			closeAll(elns)
			closeAll(clns)
			return "", nil, err
		}
		cln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			eln.Close()
			closeAll(elns)
			closeAll(clns)
			return "", nil, err
		}
		elns, clns = append(elns, eln), append(clns, cln)
	}

	peers := make(map[paxos.NodeID]string, 3)
	addrName := make(map[string]string, 3)
	for i, ln := range elns {
		peers[paxos.NodeID(i+1)] = ln.Addr().String()
		addrName[ln.Addr().String()] = fmt.Sprintf("elector-%d", i+1)
	}
	ectx, ecancel := context.WithTimeout(ctx, 45*time.Second)
	defer ecancel()
	type outcome struct {
		leader string
		err    error
	}
	results := make(chan outcome, 3)
	for i := 0; i < 3; i++ {
		i := i
		e, err := controller.NewElector(paxos.NodeID(i+1), peers, clns[i].Addr().String(), logf)
		if err != nil {
			closeAll(elns)
			closeAll(clns)
			return "", nil, err
		}
		e.SetDialTimeout(200 * time.Millisecond)
		e.SetSendTimeout(200 * time.Millisecond)
		me := fmt.Sprintf("elector-%d", i+1)
		e.SetDialer(func(addr string, timeout time.Duration) (net.Conn, error) {
			return enet.Dial(me, addrName[addr], addr, timeout)
		})
		go func() {
			leader, err := e.Run(ectx, elns[i])
			results <- outcome{leader, err}
		}()
	}
	var leaders []string
	for i := 0; i < 3; i++ {
		r := <-results
		if r.err != nil {
			closeAll(clns)
			return "", nil, fmt.Errorf("soak: election: %w", r.err)
		}
		leaders = append(leaders, r.leader)
	}
	if leaders[0] != leaders[1] || leaders[1] != leaders[2] {
		closeAll(clns)
		return "", nil, fmt.Errorf("soak: split brain: replicas elected %v", leaders)
	}
	var winner net.Listener
	for _, ln := range clns {
		if ln.Addr().String() == leaders[0] {
			winner = ln
		} else {
			ln.Close()
		}
	}
	if winner == nil {
		return "", nil, fmt.Errorf("soak: leader %q is not a replica address", leaders[0])
	}
	return leaders[0], winner, nil
}

// demandPlans builds the seeded submission plan. Each demand carries a
// unique bandwidth, which is what lets a retrying client recognize its
// own earlier submission in a status reply after a lost ack.
func demandPlans(n *topo.Network, inj *chaos.Injector, count int) []DemandPlan {
	var plans []DemandPlan
	for i := 0; i < count; i++ {
		src := inj.Intn("soak/src", uint64(i), n.NumNodes())
		dst := inj.Intn("soak/dst", uint64(i), n.NumNodes()-1)
		if dst >= src {
			dst++ // skip self, still uniform over the others
		}
		plans = append(plans, DemandPlan{
			Src: n.NodeName(topo.NodeID(src)), Dst: n.NodeName(topo.NodeID(dst)),
			Bandwidth: 40 + 7*float64(i), Target: 0.999,
		})
	}
	return plans
}

// pickLinks selects count distinct links by seeded draws.
func pickLinks(n *topo.Network, inj *chaos.Injector, count int) []topo.Link {
	seen := make(map[int]bool)
	var out []topo.Link
	for k := uint64(0); len(out) < count; k++ {
		i := inj.Intn("soak/link", k, n.NumLinks())
		if seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, n.Links()[i])
	}
	return out
}

// linkEventPlan builds the failure choreography over four links A-D:
// two overlapping-failure episodes. Each episode's first failure is a
// single-link down (a precomputed-backup hit); the second makes the
// down set two links deep — beyond the backup depth — forcing the
// ladder past its first rung. The second episode's miss lands on the
// gated solver, forcing the greedy floor.
func linkEventPlan(n *topo.Network, links []topo.Link) []LinkEventPlan {
	name := func(l topo.Link, up bool) LinkEventPlan {
		return LinkEventPlan{Src: n.NodeName(l.Src), Dst: n.NodeName(l.Dst), Up: up}
	}
	a, b, c, d := links[0], links[1], links[2], links[3]
	return []LinkEventPlan{
		name(a, false), // backup hit
		name(b, false), // miss -> budgeted optimal (gate idx 0 passes)
		name(b, true),
		name(a, true),
		name(c, false), // backup hit
		name(d, false), // miss -> gate idx 1 denies -> greedy floor
		name(d, true),
		name(c, true),
	}
}

// chaosClient is a serial client over the lossy wire: any transport
// error drops the connection and the next call redials.
type chaosClient struct {
	net   *chaos.Net
	addr  string
	conn  *wire.Conn
	seq   uint64
	sheds int64
}

func (cl *chaosClient) ensure() error {
	if cl.conn != nil {
		return nil
	}
	nc, err := cl.net.Dial("client", "controller", cl.addr, 2*time.Second)
	if err != nil {
		return err
	}
	c := wire.New(nc)
	if err := c.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "client", Codec: wire.CodecBinary}}); err != nil {
		c.Close()
		return err
	}
	cl.conn = c
	return nil
}

func (cl *chaosClient) drop() {
	if cl.conn != nil {
		cl.conn.Close()
		cl.conn = nil
	}
}

// roundTrip sends one request and reads its reply. The chaos drop
// fault closes the connection before any byte is written, so a
// transport error here means the controller never saw the request —
// except for a lost reply after a landed request, which the callers'
// dedup/idempotency logic covers.
func (cl *chaosClient) roundTrip(m *wire.Message) (*wire.Message, error) {
	if err := cl.ensure(); err != nil {
		return nil, err
	}
	cl.seq++
	m.Seq = cl.seq
	if err := cl.conn.Send(m); err != nil {
		cl.drop()
		return nil, err
	}
	cl.conn.SetDeadline(time.Now().Add(10 * time.Second))
	r, err := cl.conn.Recv()
	if err != nil {
		cl.drop()
		return nil, err
	}
	cl.conn.SetDeadline(time.Time{})
	return r, nil
}

// cleanConn is a fault-free control connection (status queries and
// dedup lookups must not themselves be subject to chaos).
type cleanConn struct {
	conn  *wire.Conn
	seq   uint64
	sheds int64
}

func dialClean(addr, role, dc string) (*cleanConn, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := c.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: role, DC: dc, Codec: wire.CodecBinary}}); err != nil {
		c.Close()
		return nil, err
	}
	return &cleanConn{conn: c}, nil
}

func (cc *cleanConn) roundTrip(m *wire.Message) (*wire.Message, error) {
	cc.seq++
	m.Seq = cc.seq
	if err := cc.conn.Send(m); err != nil {
		return nil, err
	}
	cc.conn.SetDeadline(time.Now().Add(10 * time.Second))
	defer cc.conn.SetDeadline(time.Time{})
	return cc.conn.Recv()
}

func (cc *cleanConn) Close() { cc.conn.Close() }

// statusWithRetry polls status, honoring retry-after sheds: the clean
// connection is still a client-role session, so its status polls are
// sheddable by the injected admission budget.
func (cc *cleanConn) statusWithRetry() (*wire.Message, error) {
	for attempt := 0; attempt < 8; attempt++ {
		r, err := cc.roundTrip(&wire.Message{Type: wire.TypeStatus})
		if err != nil {
			return nil, err
		}
		if r.Type == wire.TypeRetryAfter {
			cc.sheds++
			sleepHint(r.RetryAfter)
			continue
		}
		return r, nil
	}
	return nil, fmt.Errorf("soak: status shed on every attempt")
}

// submitWithRetry pushes one demand through the lossy client. Before
// every retry it checks, over the clean connection, whether an earlier
// attempt actually landed (recognized by the demand's unique
// bandwidth) — the no-acked-admission-lost, no-double-admission rule.
func submitWithRetry(cl *chaosClient, clean *cleanConn, p DemandPlan) (int, bool, error) {
	for attempt := 0; attempt < 60; attempt++ {
		if attempt > 0 {
			if id, ok := findByBandwidth(clean, p.Bandwidth); ok {
				return id, true, nil
			}
		}
		r, err := cl.roundTrip(&wire.Message{Type: wire.TypeSubmit, Submit: &wire.Submit{
			Src: p.Src, Dst: p.Dst, Bandwidth: p.Bandwidth, Target: p.Target,
			Charge: p.Bandwidth, RefundFrac: 0.5,
		}})
		if err != nil {
			continue
		}
		if r.Type == wire.TypeRetryAfter {
			// Shed before dispatch: the controller holds no book entry,
			// so a plain resend cannot double-admit. The admission budget
			// never sheds twice in a row, so the retry gets through.
			cl.sheds++
			sleepHint(r.RetryAfter)
			continue
		}
		if r.Type != wire.TypeAdmitResult || r.AdmitResult == nil {
			continue
		}
		if !r.AdmitResult.Admitted {
			return 0, false, nil
		}
		return r.AdmitResult.DemandID, true, nil
	}
	return 0, false, fmt.Errorf("soak: submit %s->%s never got through", p.Src, p.Dst)
}

func findByBandwidth(clean *cleanConn, bw float64) (int, bool) {
	r, err := clean.statusWithRetry()
	if err != nil || r.Status == nil {
		return 0, false
	}
	for _, d := range r.Status.Demands {
		if d.Bandwidth == bw {
			return d.DemandID, true
		}
	}
	return 0, false
}

// withdrawWithRetry retries until the Pong ack arrives; withdrawal is
// idempotent on the controller, so a retry after a lost ack is safe.
func withdrawWithRetry(cl *chaosClient, id int) error {
	for attempt := 0; attempt < 60; attempt++ {
		r, err := cl.roundTrip(&wire.Message{Type: wire.TypeWithdraw, WithdrawID: id})
		if err != nil {
			continue
		}
		if r.Type == wire.TypePong {
			return nil
		}
		if r.Type == wire.TypeRetryAfter {
			// Withdrawals are critical-priority, so the gate never sheds
			// them by injection; this only fires under genuine pressure
			// (never in the soak config, which has ample slots).
			cl.sheds++
			sleepHint(r.RetryAfter)
		}
	}
	return fmt.Errorf("soak: withdraw %d never acked", id)
}

// sleepHint honors a retry-after hint, defaulting to 20ms and capping
// at 200ms so a hostile hint cannot stall the soak.
func sleepHint(ra *wire.RetryAfter) {
	d := 20 * time.Millisecond
	if ra != nil && ra.RetryAfterMs > 0 {
		d = time.Duration(ra.RetryAfterMs) * time.Millisecond
	}
	if d > 200*time.Millisecond {
		d = 200 * time.Millisecond
	}
	time.Sleep(d)
}

// monitor is a clean broker-role session used to report link events,
// with ping/pong as a processing barrier: when the pong for a given
// seq arrives, every earlier message on the session — link events
// included — has been handled by the controller.
type monitor struct {
	conn  *wire.Conn
	seq   uint64
	pongs chan uint64
}

func newMonitor(addr string) (*monitor, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := c.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "broker", DC: "DC3", Codec: wire.CodecBinary}}); err != nil {
		c.Close()
		return nil, err
	}
	m := &monitor{conn: c, pongs: make(chan uint64, 16)}
	go func() {
		for {
			msg, err := c.Recv()
			if err != nil {
				close(m.pongs)
				return
			}
			if msg.Type == wire.TypePong {
				m.pongs <- msg.Seq
			}
			// Alloc pushes to this pseudo-broker are observed and dropped.
		}
	}()
	return m, nil
}

func (m *monitor) linkEvent(ev LinkEventPlan) error {
	if err := m.conn.Send(&wire.Message{Type: wire.TypeLinkEvent, LinkEvent: &wire.LinkEvent{
		SrcDC: ev.Src, DstDC: ev.Dst, Up: ev.Up,
	}}); err != nil {
		return err
	}
	return m.barrier()
}

func (m *monitor) barrier() error {
	m.seq++
	want := m.seq
	if err := m.conn.Send(&wire.Message{Type: wire.TypePing, Seq: want}); err != nil {
		return err
	}
	deadline := time.After(20 * time.Second)
	for {
		select {
		case seq, ok := <-m.pongs:
			if !ok {
				return fmt.Errorf("soak: monitor session died before pong %d", want)
			}
			if seq == want {
				return nil
			}
		case <-deadline:
			return fmt.Errorf("soak: barrier %d timed out", want)
		}
	}
}

func (m *monitor) close() { m.conn.Close() }

func firstN(xs []int, n int) []int {
	if len(xs) < n {
		n = len(xs)
	}
	return xs[:n]
}

func waitUntil(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

func writeJSON(path string, v interface{}) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
