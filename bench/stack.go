package main

import (
	"context"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"bate/internal/broker"
	"bate/internal/controller"
	"bate/internal/demand"
	"bate/internal/overload"
	"bate/internal/partition"
	"bate/internal/store"
	"bate/internal/topo"
	"bate/internal/wire"
)

const (
	// opTimeout bounds one client request; roundTimeout bounds one
	// reschedule or link event until every broker enforces it. Either
	// expiring is a failure that ends the run.
	opTimeout    = 30 * time.Second
	roundTimeout = 60 * time.Second
)

func quiet(string, ...interface{}) {}

// applied is the last AllocUpdate one broker applied and when.
type applied struct {
	u  *wire.AllocUpdate
	at time.Time
}

// watch records, from the brokers' own OnAlloc callbacks, what each
// broker enforces. It is the harness's only view of the data plane.
type watch struct {
	mu      sync.Mutex
	last    map[string]applied
	changed chan struct{} // capacity 1: a level trigger for the one waiter
}

func newWatch() *watch {
	return &watch{last: make(map[string]applied), changed: make(chan struct{}, 1)}
}

func (w *watch) record(dc string, u *wire.AllocUpdate) {
	w.mu.Lock()
	w.last[dc] = applied{u: u, at: time.Now()}
	w.mu.Unlock()
	select {
	case w.changed <- struct{}{}:
	default:
	}
}

// wait blocks until n brokers have applied an update that satisfies
// ok, and returns when the last of them did.
func (w *watch) wait(n int, ok func(*wire.AllocUpdate) bool, timeout time.Duration) (time.Time, error) {
	expired := time.NewTimer(timeout)
	defer expired.Stop()
	for {
		w.mu.Lock()
		var lastAt time.Time
		got := 0
		for _, a := range w.last {
			if ok(a.u) {
				got++
				if a.at.After(lastAt) {
					lastAt = a.at
				}
			}
		}
		w.mu.Unlock()
		if got == n {
			return lastAt, nil
		}
		select {
		case <-w.changed:
		case <-expired.C:
			return time.Time{}, fmt.Errorf("%d of %d brokers enforcing after %v", got, n, timeout)
		}
	}
}

// updates returns every broker's last applied update.
func (w *watch) updates() []*wire.AllocUpdate {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]*wire.AllocUpdate, 0, len(w.last))
	for _, a := range w.last {
		out = append(out, a.u)
	}
	return out
}

// stack is the real system in one process: a controller with real
// admission and a durable fsync-on store, one broker per DC, and the
// client connections, all over the binary wire on loopback TCP.
type stack struct {
	w     *workload
	lay   *layout
	store *store.Store
	ctrl  *controller.Controller
	watch *watch
	tr    *tracer // nil in an untraced run

	cancel  context.CancelFunc
	running sync.WaitGroup // Serve and every broker's Run

	brokers map[string]*broker.Broker
	// client is the one closed-loop tenant connection. A second one adds
	// no throughput — every mutating request runs under the controller's
	// one mutex — and doubles the ack by queueing; on two CPUs it also
	// made every timing less steady (README, "Bounds and the noise floor").
	client *client

	// book mirrors the controller's demand book with the ids it
	// assigned; the traced run replays the pipeline on it.
	bookMu sync.Mutex
	book   map[int]*demand.Demand

	setupS    float64
	tunnelsMs float64
}

// setup brings the stack up, fills the book and runs the first cold
// reschedule. Its wall time is the setup_s metric.
func setup(w *workload, seed int64, dir string, tr *tracer) (*stack, error) {
	start := time.Now()
	s := &stack{w: w, tr: tr, watch: newWatch(), brokers: make(map[string]*broker.Broker), book: make(map[int]*demand.Demand)}
	s.lay, s.tunnelsMs = buildLayout(w)
	var err error
	if s.store, err = store.Open(dir, s.lay.net, store.Options{Logf: quiet}); err != nil {
		return nil, err
	}
	cfg := controller.Config{Net: s.lay.net, Tunnels: s.lay.tunnels, MaxFail: maxFail, Store: s.store, Logf: quiet}
	if w.regions > 1 {
		cfg.Partition = &partition.Options{Regions: w.regions}
	}
	if w.gate {
		cfg.Overload = &overload.Options{}
	}
	if s.ctrl, err = controller.New(cfg); err != nil {
		s.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.running.Add(1)
	go func() {
		defer s.running.Done()
		_ = s.ctrl.Serve(ctx, ln) // ends by cancellation; nothing to report
	}()
	addr := ln.Addr().String()

	for v := 0; v < s.lay.net.NumNodes(); v++ {
		dc := s.lay.net.NodeName(topo.NodeID(v))
		b := broker.New(dc, addr)
		b.SetLogf(quiet)
		b.OnAlloc(func(u *wire.AllocUpdate) { s.watch.record(dc, u) })
		s.brokers[dc] = b
		s.running.Add(1)
		go func() {
			defer s.running.Done()
			_ = b.Run(ctx) // returns nil on cancellation
		}()
	}
	// Every broker gets the current allocation on hello; seeing it means
	// the session is registered and later pushes will reach it.
	if _, err := s.watch.wait(len(s.brokers), func(*wire.AllocUpdate) bool { return true }, opTimeout); err != nil {
		s.close()
		return nil, fmt.Errorf("brokers connecting: %w", err)
	}
	if s.client, err = dialClient(s, addr, newStream(w, s.lay, seed, 0)); err != nil {
		s.close()
		return nil, err
	}
	if err := s.fill(); err != nil {
		s.close()
		return nil, fmt.Errorf("book fill: %w", err)
	}
	if _, _, err := s.reschedule(); err != nil {
		s.close()
		return nil, fmt.Errorf("first reschedule: %w", err)
	}
	s.setupS = time.Since(start).Seconds()
	return s, nil
}

// fill submits the book.
func (s *stack) fill() error {
	for left := s.w.book; left > 0; {
		n := min(left, s.w.batch)
		res, err := s.client.submit(n, nil)
		if err != nil {
			return err
		}
		if res.failed > 0 {
			return fmt.Errorf("%d of %d fill submits rejected", res.failed, n)
		}
		left -= n
	}
	return nil
}

// reschedule runs one scheduling round and waits until every broker
// enforces its epoch. It returns how long the Reschedule call took and
// the whole round up to the slowest broker's apply (which can precede
// the call's return: the push is the call's last step).
func (s *stack) reschedule() (call, total time.Duration, err error) {
	start := time.Now()
	done := make(chan error, 1)
	go func() { done <- s.ctrl.Reschedule() }()
	expired := time.NewTimer(roundTimeout)
	defer expired.Stop()
	select {
	case err = <-done:
	case <-expired.C:
		// The solve cannot be cancelled from outside; the run ends here.
		return 0, 0, fmt.Errorf("reschedule still running after %v", roundTimeout)
	}
	call = time.Since(start)
	if err != nil {
		return call, 0, fmt.Errorf("reschedule: %w", err)
	}
	_, epoch := s.ctrl.Snapshot()
	lastAt, err := s.watch.wait(len(s.brokers), func(u *wire.AllocUpdate) bool { return u.Epoch >= epoch }, roundTimeout)
	if err != nil {
		return call, 0, fmt.Errorf("round: %w", err)
	}
	return call, lastAt.Sub(start), nil
}

// linkEvent reports a link change from the broker at its source DC and
// waits until every broker enforces the reaction: a Backup update of a
// newer epoch for a failure, the scheduled allocation for a repair.
func (s *stack) linkEvent(src, dst string, up bool) (time.Duration, error) {
	_, before := s.ctrl.Snapshot()
	start := time.Now()
	if err := s.brokers[src].ReportLink(src, dst, up); err != nil {
		return 0, err
	}
	lastAt, err := s.watch.wait(len(s.brokers), func(u *wire.AllocUpdate) bool {
		return u.Epoch > before && u.Backup == !up
	}, roundTimeout)
	if err != nil {
		return 0, fmt.Errorf("link %s-%s up=%v: %w", src, dst, up, err)
	}
	return lastAt.Sub(start), nil
}

// bookDemands returns the mirrored book in id order, the order the
// controller schedules in.
func (s *stack) bookDemands() []*demand.Demand {
	s.bookMu.Lock()
	defer s.bookMu.Unlock()
	out := make([]*demand.Demand, 0, len(s.book))
	for _, d := range s.book {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// close stops everything setup started and waits for it to end;
// closing again changes nothing. The store directory is left in place
// for the caller.
func (s *stack) close() {
	if s.client != nil {
		s.client.conn.Close()
	}
	if s.cancel != nil {
		s.cancel()
		s.running.Wait()
	}
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
}
