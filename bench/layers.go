package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strings"
	"time"

	"bate/internal/alloc"
	"bate/internal/bate"
	"bate/internal/demand"
	"bate/internal/lp"
	"bate/internal/overload"
	"bate/internal/partition"
	"bate/internal/scenario"
	"bate/internal/store"
	"bate/internal/topo"
	"bate/internal/wire"
)

// The per-layer half of the benchmark. Layers are timed from outside,
// through their public functions: after each traced request the
// replayer runs the controller's pipeline for that request step by
// step on a snapshot of the same book, one span per step. What the
// real request took beyond its replay is the controller's own share
// (lock, push fan-out, message building).

// echo is a loopback wire.Conn pair whose far end answers like a
// controller session would, with no work behind the answer: a Submit
// gets an AdmitResult, an AllocUpdate comes straight back.
type echo struct {
	ln   net.Listener
	conn *wire.Conn
	seq  uint64
	done chan struct{}
}

func newEcho() (*echo, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("echo listen: %w", err)
	}
	e := &echo{ln: ln, done: make(chan struct{})}
	go func() {
		defer close(e.done)
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		srv := wire.New(nc)
		srv.EnableCoalescing() // as the controller does on accepted sessions
		defer srv.Close()
		for {
			m, err := srv.Recv()
			if err != nil {
				return
			}
			switch m.Type {
			case wire.TypeSubmit:
				m = &wire.Message{Type: wire.TypeAdmitResult, Seq: m.Seq, AdmitResult: &wire.AdmitResult{DemandID: 1, Admitted: true, Method: "fixed"}}
			case wire.TypeAllocUpdate:
			default:
				continue
			}
			if srv.Send(m) != nil {
				return
			}
		}
	}()
	if e.conn, err = wire.Dial(ln.Addr().String()); err == nil {
		err = e.conn.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "client", Codec: wire.CodecBinary}})
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("echo dial: %w", err)
	}
	return e, nil
}

func (e *echo) roundTrip(m *wire.Message) error {
	e.seq++
	m.Seq = e.seq
	if err := e.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return err
	}
	if err := e.conn.Send(m); err != nil {
		return err
	}
	_, err := e.conn.Recv()
	return err
}

func (e *echo) close() {
	if e.conn != nil {
		e.conn.Close()
	}
	e.ln.Close()
	<-e.done
}

// snapshot is the book and the allocation the brokers enforce at one
// instant between requests.
type snapshot struct {
	in      *alloc.Input
	current alloc.Allocation
	// push is a book-sized AllocUpdate, the payload of the push replay.
	push *wire.Message
}

// replayer replays requests on snapshots and collects the layer
// samples into the run's ledger.
type replayer struct {
	s       *stack
	led     *ledger
	scratch *store.Store // same filesystem as the run's store, fsync on
	echo    *echo
	src     *stream // pads AdmitBatch replays; never reaches the controller
	backups *bate.BackupSet
	errs    []error
}

func newReplayer(s *stack, led *ledger, scratchDir string, seed int64) (*replayer, error) {
	scratch, err := store.Open(scratchDir, s.lay.net, store.Options{Logf: quiet})
	if err != nil {
		return nil, err
	}
	e, err := newEcho()
	if err != nil {
		scratch.Close()
		return nil, err
	}
	return &replayer{s: s, led: led, scratch: scratch, echo: e, src: newStream(s.w, s.lay, seed, 50)}, nil
}

func (r *replayer) close() {
	r.echo.close()
	r.scratch.Close()
}

// step times one replayed layer call as a child span and records it as
// a sample of metric, whose _us or _ms suffix picks the unit; the span
// carries the name without the suffix. A layer error is kept for the
// end of the run: the replay is measurement, so it must not cut a
// phase short.
func (r *replayer) step(metric string, parent *span, f func() error) time.Duration {
	var err error
	d := r.s.tr.timed(strings.TrimSuffix(strings.TrimSuffix(metric, "_us"), "_ms"), parent, 0, func() { err = f() })
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("replay %s: %w", metric, err))
		return 0
	}
	if strings.HasSuffix(metric, "_us") {
		r.led.add(metric, us(d))
	} else {
		r.led.add(metric, ms(d))
	}
	return d
}

// finish closes a replay's parent span and records its length.
func (r *replayer) finish(sp *span, metric string, scale float64) {
	sp.end()
	if sp != nil {
		r.led.add(metric, float64(sp.End-sp.Start)/scale)
	}
}

// snapshot waits until every broker enforces the controller's current
// epoch, then captures the book and the enforced allocation.
func (r *replayer) snapshot() *snapshot {
	_, epoch := r.s.ctrl.Snapshot()
	if _, err := r.s.watch.wait(len(r.s.brokers), func(u *wire.AllocUpdate) bool { return u.Epoch >= epoch }, opTimeout); err != nil {
		r.errs = append(r.errs, fmt.Errorf("replay snapshot: %w", err))
	}
	in := &alloc.Input{Net: r.s.lay.net, Tunnels: r.s.lay.tunnels, Demands: r.s.bookDemands()}
	updates := r.s.watch.updates()
	all := &wire.AllocUpdate{Epoch: epoch}
	for _, t := range enforcedTunnels(updates) {
		all.Tunnels = append(all.Tunnels, t)
	}
	return &snapshot{in: in, current: enforcedAllocation(in, updates), push: &wire.Message{Type: wire.TypeAllocUpdate, Alloc: all}}
}

// asDemand is a submit as the controller books it under id.
func asDemand(n *topo.Network, sub *wire.Submit, id int) *demand.Demand {
	src, _ := n.NodeByName(sub.Src)
	dst, _ := n.NodeByName(sub.Dst)
	return &demand.Demand{
		ID:     id,
		Pairs:  []demand.PairDemand{{Src: src, Dst: dst, Bandwidth: sub.Bandwidth}},
		Target: sub.Target, Charge: sub.Charge, RefundFrac: sub.RefundFrac,
	}
}

// commit replays what every mutating request ends with: the epoch
// append and the allocation push.
func (r *replayer) commit(parent *span, snap *snapshot) {
	r.step("store.append_epoch_us", parent, func() error { return r.scratch.AppendEpoch(snap.push.Alloc.Epoch) })
	r.step("wire.rtt_alloc_us", parent, func() error { return r.echo.roundTrip(snap.push) })
}

// batchReplay is the frame size the AdmitBatch replay uses on every
// workload, the batch workload's own.
const batchReplay = 8

// submit replays one submit frame: admission the way the frame was
// sent, one admit append per demand, epoch, push. The other admission
// path then runs on the same snapshot, outside the replayed request.
func (r *replayer) submit(parent *span, snap *snapshot, subs []wire.Submit) {
	free := 1
	for _, d := range snap.in.Demands {
		free = max(free, d.ID+1)
	}
	frame := make([]*demand.Demand, 0, batchReplay)
	for i := range subs {
		frame = append(frame, asDemand(r.s.lay.net, &subs[i], free+i))
	}
	rows := make(alloc.Allocation) // admission-time rows, as the controller logs them
	admitOne := func(parent *span) {
		r.step("bate.admit_us", parent, func() error {
			res, err := bate.Admit(snap.in, snap.current, snap.in.Demands, frame[0], maxFail)
			if err == nil {
				rows[frame[0].ID] = res.NewAlloc
			}
			return err
		})
	}
	admitBatch := func(parent *span) {
		d := r.step("bate.admit_batch_us", parent, func() error {
			res, err := bate.AdmitBatch(snap.in, snap.current, snap.in.Demands, frame, bate.BatchOptions{MaxFail: maxFail})
			if err == nil {
				rows = res.Allocations
			}
			return err
		})
		r.led.add("bate.admit_batch_us_per_demand", us(d)/float64(len(frame)))
	}
	single := r.s.w.batch == 1

	sp := r.s.tr.start("replay.submit", parent, 0)
	if single {
		admitOne(sp)
	} else {
		admitBatch(sp)
	}
	for _, d := range frame {
		r.step("store.append_admit_us", sp, func() error { return r.scratch.AppendAdmit(d, rows[d.ID]) })
	}
	r.commit(sp, snap)
	r.finish(sp, "replay.submit_us", 1e3)

	other := r.s.tr.start("replay.other_admission", parent, 0)
	defer other.end()
	if single {
		for len(frame) < batchReplay {
			sub := r.src.next()
			frame = append(frame, asDemand(r.s.lay.net, &sub, free+len(frame)))
		}
		admitBatch(other)
	} else {
		admitOne(other)
	}
}

// withdraw replays one withdraw: the withdraw append, epoch, push.
func (r *replayer) withdraw(parent *span) {
	snap := r.snapshot()
	sp := r.s.tr.start("replay.withdraw", parent, 0)
	for i := 0; i < r.s.w.batch; i++ {
		r.step("store.append_withdraw_us", sp, func() error { return r.scratch.AppendWithdraw(1) })
		r.commit(sp, snap)
	}
	r.finish(sp, "replay.withdraw_us", 1e3)
}

// scheduleOptions is how the controller configures its rounds.
func (r *replayer) scheduleOptions() bate.ScheduleOptions {
	o := bate.ScheduleOptions{MaxFail: maxFail, Engine: lp.EngineRevised}
	if r.s.w.regions > 1 {
		o.Partition = &partition.Options{Regions: r.s.w.regions}
	}
	return o
}

// round replays one scheduling round on the current book: the
// production solve from cold, hardening, the schedule append, backup
// precomputation, epoch and push. With matrix set it also solves the
// identical snapshot down every other path.
func (r *replayer) round(parent *span, matrix bool) {
	snap := r.snapshot()
	in := snap.in

	// What the round would pay for scenario classes with a cold cache;
	// the real round mostly hits the process-wide one.
	r.step("scenario.classes_cold_ms", parent, func() error {
		cache := scenario.NewClassCache(0)
		for _, d := range in.Demands {
			if _, _, err := cache.ClassesFor(in.Net, nil, in.AllTunnelsFor(d), maxFail); err != nil {
				return err
			}
		}
		return nil
	})

	sp := r.s.tr.start("replay.round", parent, 0)
	var a alloc.Allocation
	r.step("bate.schedule_cold_ms", sp, func() error {
		var stats *bate.ScheduleStats
		var err error
		a, stats, err = bate.Schedule(in, r.scheduleOptions())
		if err == nil {
			r.led.add("lp.rows", float64(stats.Constraints))
			r.led.add("lp.cols", float64(stats.Variables))
		}
		return err
	})
	if a == nil {
		sp.end()
		return
	}
	r.step("bate.harden_ms", sp, func() error {
		hardened, err := bate.Harden(in, bate.ScheduleOptions{MaxFail: maxFail}, a)
		if err == nil {
			a = hardened
		}
		return nil // the controller keeps the unhardened allocation too
	})
	r.step("store.append_schedule_ms", sp, func() error { return r.scratch.AppendSchedule(a) })
	r.step("bate.backups_ms", sp, func() error {
		var err error
		r.backups, err = bate.PrecomputeBackups(in, 1, in.Net.NumLinks()*4)
		if err == nil {
			r.led.add("bate.backups_combos", float64(r.backups.Len()))
		}
		return err
	})
	r.commit(sp, snap)
	r.finish(sp, "replay.round_ms", 1e6)
	if !matrix {
		return
	}

	// Warm: a second Schedule on the unchanged book reuses the basis, so
	// what is left is the cost of rebuilding the LP.
	sched := bate.NewScheduler()
	r.step("bate.schedule_prime_ms", parent, func() error {
		_, _, err := sched.Schedule(in, r.scheduleOptions())
		return err
	})
	r.step("bate.schedule_warm_ms", parent, func() error {
		_, _, err := sched.Schedule(in, r.scheduleOptions())
		return err
	})
	regions := max(r.s.w.regions, 2)
	paths := []struct {
		name string
		opts bate.ScheduleOptions
	}{
		{"bate.schedule_global", bate.ScheduleOptions{MaxFail: maxFail, Engine: lp.EngineRevised}},
		{"bate.schedule_batch", bate.ScheduleOptions{MaxFail: maxFail, Engine: lp.EngineBatch}},
		{"bate.schedule_partitioned", bate.ScheduleOptions{MaxFail: maxFail, Engine: lp.EngineRevised, Partition: &partition.Options{Regions: regions}}},
	}
	var objs []float64
	for _, p := range paths {
		r.step(p.name+"_ms", parent, func() error {
			alt, _, err := bate.Schedule(in, p.opts)
			if err == nil {
				objs = append(objs, alt.Total())
			}
			return err
		})
	}
	if len(objs) == len(paths) {
		gap := 0.0
		for _, o := range objs[1:] {
			gap = max(gap, math.Abs(o-objs[0])/objs[0])
		}
		r.led.add("bate.schedule_obj_gap", gap)
	}
}

// roundCounts turns the registry's movement across one real Reschedule
// call into per-round counts.
func (r *replayer) roundCounts(before, after map[string]int64) {
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	ratio := func(hit, miss string) float64 {
		if total := delta(hit) + delta(miss); total > 0 {
			return delta(hit) / total
		}
		return 0
	}
	r.led.add("lp.pivots_per_round", delta("lp.pivots_revised")+delta("lp.pivots_dense"))
	r.led.add("lp.factorizations_per_round", delta("lp.factorizations"))
	r.led.add("lp.warmstart_hit_ratio", ratio("lp.warmstart_hits", "lp.warmstart_misses"))
	r.led.add("scenario.cache_hit_ratio", ratio("scenario.class_cache.hits", "scenario.class_cache.misses"))
	r.led.add("partition.regions", float64(after["partition.regions"])) // a max gauge, not a counter
	r.led.add("partition.cut_demands", delta("partition.cut_demands"))
	r.led.add("partition.fallbacks", delta("partition.fallbacks"))
}

// recover replays the recovery ladder for a failure set: the backup
// lookup for a single failure, and for a concurrent one the budgeted
// MILP and the greedy floor each on their own; then the link append,
// epoch and push.
func (r *replayer) recover(parent *span, down []topo.LinkID) {
	snap := r.snapshot()
	sp := r.s.tr.start("replay.recover", parent, 0)
	r.step("store.append_link_us", sp, func() error { return r.scratch.AppendLink("a", "b", false) })
	if len(down) == 1 {
		r.step("bate.recover_backup_us", sp, func() error {
			_, stage, err := bate.Recover(snap.in, down, bate.RecoverOptions{Backups: r.backups})
			if err == nil && stage != bate.StageBackup {
				err = fmt.Errorf("served by the %s stage", stage)
			}
			return err
		})
	} else {
		r.step("bate.recover_optimal_ms", sp, func() error {
			// The controller's budget: 8/10 of the 2 s recovery deadline.
			ctx, cancel := context.WithTimeout(context.Background(), 1600*time.Millisecond)
			defer cancel()
			_, err := bate.RecoverOptimalOpts(snap.in, down, lp.Options{MaxNodes: 20000, Cancel: ctx.Err})
			if errors.Is(err, lp.ErrAborted) {
				return nil // out of budget: the rung cost its whole budget, and that is the sample
			}
			return err
		})
	}
	r.commit(sp, snap)
	r.finish(sp, fmt.Sprintf("replay.recover%d_ms", len(down)), 1e6)
	if len(down) > 1 {
		r.step("bate.recover_greedy_ms", parent, func() error {
			_, err := bate.RecoverGreedy(snap.in, down)
			return err
		})
	}
}

// standalone times the layers no request replay reaches: the bare
// submit round trip and an uncontended gate.
func (r *replayer) standalone() {
	root := r.s.tr.start("standalone", nil, 0)
	defer root.end()
	sub := r.src.next()
	for i := 0; i < 200; i++ {
		r.step("wire.rtt_submit_us", root, func() error {
			return r.echo.roundTrip(&wire.Message{Type: wire.TypeSubmit, Submit: &sub})
		})
	}
	gate := overload.NewGate(overload.Options{})
	const acquires = 1000
	d := r.step("overload.acquire_x1000_us", root, func() error {
		for i := 0; i < acquires; i++ {
			if dec := gate.Acquire("bench", overload.PSubmit, 0); !dec.OK {
				return fmt.Errorf("uncontended acquire shed: %s", dec.Reason)
			}
			gate.Release(time.Microsecond)
		}
		return nil
	})
	r.led.add("overload.acquire_us", us(d)/acquires)
}
