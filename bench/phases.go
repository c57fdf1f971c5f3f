package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bate/internal/metrics"
	"bate/internal/topo"
)

// ledger collects latency samples by name and counts operations. Every
// submit, withdraw, status poll, round, link event and checker pass is
// one attempted operation; errors, rejects and checker violations are
// failures.
type ledger struct {
	mu         sync.Mutex
	samples    map[string][]float64
	attempted  int
	failed     int
	violations []string
}

func newLedger() *ledger {
	return &ledger{samples: make(map[string][]float64)}
}

func (l *ledger) add(name string, v float64) {
	l.mu.Lock()
	l.samples[name] = append(l.samples[name], v)
	l.mu.Unlock()
}

func (l *ledger) count(attempted, failed int) {
	l.mu.Lock()
	l.attempted += attempted
	l.failed += failed
	l.mu.Unlock()
}

// check records one checker pass and its violations.
func (l *ledger) check(where string, lines []string) {
	l.mu.Lock()
	l.attempted++
	if len(lines) > 0 {
		l.failed++
	}
	for _, line := range lines {
		l.violations = append(l.violations, where+": "+line)
	}
	l.mu.Unlock()
}

// quantile returns the q-quantile of a sample set by linear
// interpolation between order statistics, and false when it is empty.
func (l *ledger) quantile(name string, q float64) (float64, bool) {
	l.mu.Lock()
	s := append([]float64(nil), l.samples[name]...)
	l.mu.Unlock()
	if len(s) == 0 {
		return 0, false
	}
	return quantile(s, q), true
}

func (l *ledger) len(name string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.samples[name])
}

// quantile sorts s in place. It interpolates, which metrics.CDF does
// not: the sets here are as small as three set-ups or seven rounds.
func quantile(s []float64, q float64) float64 {
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// statusEvery is the write:read mix of the churn: one status poll per
// this many submits and withdraws on a connection.
const statusEvery = 8

// roundChurn is how many submits and withdraws change the book before
// each scheduling round.
const roundChurn = 16

// run is one benchmark run of one workload.
type run struct {
	s   *stack
	led *ledger
	rep *replayer // nil in an untraced run
}

// churnStep withdraws the connection's oldest demands and submits as
// many new ones: one pair, or one burst and one batch frame. Latency
// samples are recorded under prefix ("" records none); with replay
// set, each request is followed by its replay under the parent span.
func (r *run) churnStep(c *client, parent *span, prefix string, replay bool) (int, error) {
	b := r.s.w.batch
	wres, err := c.withdraw(b, parent)
	if err != nil {
		r.led.count(b, b)
		return 0, err
	}
	r.led.count(wres.n, 0)
	var snap *snapshot
	if replay {
		r.rep.withdraw(parent)
		snap = r.rep.snapshot()
	}
	sres, err := c.submit(b, parent)
	if err != nil {
		r.led.count(b, b)
		return wres.n, err
	}
	r.led.count(sres.n, sres.failed)
	if replay {
		r.rep.submit(parent, snap, sres.subs)
	}
	if prefix != "" {
		r.led.add(prefix+"withdraw_ms", ms(wres.lat))
		r.led.add(prefix+"submit_ms", ms(sres.lat))
	}
	return wres.n + sres.n - sres.failed, nil
}

// poll issues one status poll and records its latency.
func (r *run) poll(c *client, parent *span, prefix string) error {
	_, res, err := c.status(parent)
	r.led.count(1, 0)
	if err != nil {
		r.led.count(0, 1)
		return err
	}
	if prefix != "" {
		r.led.add(prefix+"status_ms", ms(res.lat))
	}
	return nil
}

// churn drives the connection closed-loop for d: withdraw-one +
// submit-one pairs against the full book, one status poll per
// statusEvery operations. It records the slice's completed operations
// per second of wall time.
func (r *run) churn(d time.Duration) error {
	start := time.Now()
	done, sincePoll := 0, 0
	for time.Since(start) < d {
		n, err := r.churnStep(r.s.client, nil, "churn.", false)
		if err != nil {
			return err
		}
		done += n
		if sincePoll += n; sincePoll >= statusEvery {
			sincePoll = 0
			if err := r.poll(r.s.client, nil, "churn."); err != nil {
				return err
			}
		}
	}
	r.led.add("churn.ops_per_s", float64(done)/time.Since(start).Seconds())
	return nil
}

// churnOps drives the connection for about ops operations. Without
// replay it is the traced run's plain baseline, recorded as "base.".
// With replay every request is followed by its replay, and spans are
// recorded on every other step only: the "traced." and "untraced."
// samples then come from the same stretch of the run and the same
// state of the system, and differ in nothing but the tracing.
func (r *run) churnOps(ops int, replay bool) error {
	c := r.s.client
	tr := r.s.tr
	defer func() { r.s.tr = tr }()
	sincePoll := 0
	for step, done := 0, 0; done < ops; step++ {
		prefix := "base."
		if replay {
			r.s.tr, prefix = tr, "traced."
			if step%2 == 1 {
				r.s.tr, prefix = nil, "untraced."
			}
		}
		root := r.s.tr.start("churn.step", nil, 0)
		n, err := r.churnStep(c, root, prefix, replay)
		root.end()
		if err != nil {
			return err
		}
		done += n
		if sincePoll += n; sincePoll >= statusEvery {
			sincePoll = 0
			if err := r.poll(c, nil, prefix); err != nil {
				return err
			}
		}
	}
	return nil
}

// verify runs the output checker: link loads from the brokers' own
// updates, and — when the scheduled allocation is in force — the
// per-demand guarantee from a status poll.
func (r *run) verify(where string, down map[topo.LinkID]bool, withStatus bool) error {
	r.led.check(where+" links", linkViolations(r.s.lay.net, r.s.watch.updates(), down))
	if !withStatus {
		return nil
	}
	reply, _, err := r.s.client.status(nil)
	if err != nil {
		r.led.count(1, 1)
		return err
	}
	r.led.check(where+" status", statusViolations(reply, r.s.bookDemands()))
	return nil
}

// round changes the book by roundChurn operations, then times
// Reschedule until the last broker enforces the new epoch, and checks
// the result. It is the run's n-th round.
func (r *run) round(n int, matrix bool) error {
	for done := 0; done < roundChurn; {
		k, err := r.churnStep(r.s.client, nil, "", false)
		if err != nil {
			return err
		}
		done += k
	}
	root := r.s.tr.start("round", nil, 0)
	before := metrics.Snapshot()
	sp := r.s.tr.start("round.enforce", root, 0)
	call, total, err := r.s.reschedule()
	sp.end()
	r.led.count(1, 0)
	if err != nil {
		r.led.count(0, 1)
		return err
	}
	r.led.add("round.total_ms", ms(total))
	r.led.add("round.call_ms", ms(call))
	r.led.add("round.apply_lag_ms", ms(total-call))
	if r.rep != nil {
		r.rep.roundCounts(before, metrics.Snapshot())
		r.rep.round(root, matrix)
	}
	root.end()
	return r.verify(fmt.Sprintf("round %d", n), nil, true)
}

func (r *run) linkName(l topo.Link) (src, dst string) {
	return r.s.lay.net.NodeName(l.Src), r.s.lay.net.NodeName(l.Dst)
}

// linkUp repairs a link and waits for the scheduled allocation.
func (r *run) linkUp(l topo.Link) error {
	src, dst := r.linkName(l)
	_, err := r.s.linkEvent(src, dst, true)
	r.led.count(1, 0)
	if err != nil {
		r.led.count(0, 1)
	}
	return err
}

// linkDown fails link l while the links in held are already down,
// times it until every broker enforces the backup epoch, records the
// time under metric and checks what the brokers then hold.
func (r *run) linkDown(metric string, held []topo.Link, l topo.Link) error {
	down := []topo.LinkID{l.ID}
	downSet := map[topo.LinkID]bool{l.ID: true}
	for _, h := range held {
		down = append(down, h.ID)
		downSet[h.ID] = true
	}
	src, dst := r.linkName(l)
	root := r.s.tr.start(metric, nil, 0)
	sp := r.s.tr.start(metric+".enforce", root, 0)
	lat, err := r.s.linkEvent(src, dst, false)
	sp.end()
	r.led.count(1, 0)
	if err != nil {
		r.led.count(0, 1)
		return err
	}
	r.led.add(metric+"_ms", ms(lat))
	if r.rep != nil {
		r.rep.recover(root, down)
	}
	root.end()
	return r.verify(fmt.Sprintf("%s %s-%s", metric, src, dst), downSet, false)
}

// failures runs link failures drawn from rng: single events take one
// link down (recover1) and bring it back; double events take a second
// link down while a first is still down and time that one (recover2).
func (r *run) failures(rng *rand.Rand, single, double int) error {
	links := r.s.lay.net.Links()
	for i := 0; i < single; i++ {
		l := links[rng.Intn(len(links))]
		if err := r.linkDown("recover1", nil, l); err != nil {
			return err
		}
		if err := r.linkUp(l); err != nil {
			return err
		}
	}
	for i := 0; i < double; i++ {
		a := links[rng.Intn(len(links))]
		b := links[rng.Intn(len(links))]
		for b.ID == a.ID {
			b = links[rng.Intn(len(links))]
		}
		src, dst := r.linkName(a)
		_, err := r.s.linkEvent(src, dst, false)
		r.led.count(1, 0)
		if err != nil {
			r.led.count(0, 1)
			return err
		}
		if err := r.linkDown("recover2", []topo.Link{a}, b); err != nil {
			return err
		}
		if err := r.linkUp(b); err != nil {
			return err
		}
		if err := r.linkUp(a); err != nil {
			return err
		}
	}
	return nil
}

// cycles interleaves the phases so that every metric draws its samples
// from the whole run: each cycle is a slice of churn, a few rounds,
// and a few link failures. A disturbance on the host shorter than half
// the run then moves no median. It runs at least p.minCycles cycles and
// goes on until the budget is spent or p.maxCycles is reached.
func (r *run) cycles(p plan, seed int64) error {
	rng := rand.New(rand.NewSource(seed*1000003 + 100))
	start := time.Now()
	rounds := 0
	for i := 0; i < p.maxCycles && (i < p.minCycles || time.Since(start) < p.budget); i++ {
		var err error
		if r.rep != nil {
			err = r.churnOps(p.tracedOps, true)
		} else {
			err = r.churn(p.slice)
		}
		if err != nil {
			return fmt.Errorf("cycle %d churn: %w", i+1, err)
		}
		// One round where a round is long, several where it is short, so
		// that round_p50_ms rests on tens of books and not on a handful.
		for k, began := 0, time.Now(); k == 0 || (k < p.rounds && time.Since(began) < p.slice); k++ {
			rounds++
			if err := r.round(rounds, i == p.maxCycles-1); err != nil {
				return fmt.Errorf("cycle %d round: %w", i+1, err)
			}
		}
		if err := r.failures(rng, p.single, p.double); err != nil {
			return fmt.Errorf("cycle %d recovery: %w", i+1, err)
		}
	}
	return nil
}
