package broker

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sync"
	"time"

	"bate/internal/metrics"
	"bate/internal/wire"
)

var mReconnects = metrics.NewCounter("broker.reconnects")

// ForwardingEntry is one label-switched rule on the DC's edge switch:
// traffic carrying Label leaves toward NextHop at the enforced rate.
type ForwardingEntry struct {
	Label   uint32
	NextHop string
	Limiter *RateLimiter
}

// Broker is the per-DC agent of §4. It keeps a long-lived TCP session
// to the controller, enforces pushed allocations, and reports link
// events. All exported methods are safe for concurrent use.
type Broker struct {
	dc   string
	addr string

	mu      sync.Mutex
	conn    *wire.Conn
	epoch   uint64
	entries map[uint32]*ForwardingEntry
	onAlloc func(*wire.AllocUpdate)
	dialer  func(addr string) (*wire.Conn, error)

	logf func(string, ...interface{})
}

// New creates a broker for datacenter dc that will connect to the
// controller at addr.
func New(dc, addr string) *Broker {
	return &Broker{
		dc:      dc,
		addr:    addr,
		entries: make(map[uint32]*ForwardingEntry),
		logf:    log.Printf,
	}
}

// SetLogf overrides the logger (tests use a silent one).
func (b *Broker) SetLogf(f func(string, ...interface{})) { b.logf = f }

// SetDialer replaces the controller dialer, e.g. with a chaos-wrapped
// one. Set before Run.
func (b *Broker) SetDialer(dial func(addr string) (*wire.Conn, error)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.dialer = dial
}

// OnAlloc registers a callback invoked after each applied allocation
// update (used by examples to observe pushes).
func (b *Broker) OnAlloc(f func(*wire.AllocUpdate)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.onAlloc = f
}

// Run keeps a controller session alive until ctx is cancelled: it
// connects, processes pushes, and on any connection failure redials
// with jittered exponential backoff (capped at 5s). State survives
// disconnects — forwarding entries keep enforcing the last applied
// epoch while the session is down, and the controller re-pushes the
// current allocation on hello, which re-syncs the epoch. Run returns
// nil on ctx cancellation and an error only for failures that cannot
// heal by reconnecting.
func (b *Broker) Run(ctx context.Context) error {
	backoff := 100 * time.Millisecond
	for {
		err := b.session(ctx)
		if ctx.Err() != nil {
			return nil
		}
		if err == nil {
			// Session loops exit only on error or cancellation.
			err = fmt.Errorf("broker %s: session closed", b.dc)
		}
		mReconnects.Inc()
		sleep := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2+1)))
		b.logf("broker %s: session lost (%v), reconnecting in %v (last epoch %d still enforced)",
			b.dc, err, sleep, b.Epoch())
		select {
		case <-ctx.Done():
			return nil
		case <-time.After(sleep):
		}
		if backoff < 5*time.Second {
			backoff *= 2
			if backoff > 5*time.Second {
				backoff = 5 * time.Second
			}
		}
	}
}

// session runs one connect-hello-receive loop.
func (b *Broker) session(ctx context.Context) error {
	b.mu.Lock()
	dial := b.dialer
	b.mu.Unlock()
	if dial == nil {
		dial = wire.Dial
	}
	conn, err := dial(b.addr)
	if err != nil {
		return err
	}
	b.mu.Lock()
	b.conn = conn
	epoch := b.epoch
	b.mu.Unlock()
	defer func() {
		conn.Close()
		b.mu.Lock()
		if b.conn == conn {
			b.conn = nil
		}
		b.mu.Unlock()
	}()
	if err := conn.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "broker", DC: b.dc, Codec: wire.CodecBinary}}); err != nil {
		return err
	}
	if epoch > 0 {
		b.logf("broker %s: reconnected, awaiting re-sync from epoch %d", b.dc, epoch)
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()
	for {
		m, err := conn.Recv()
		if err != nil {
			return fmt.Errorf("broker %s: %w", b.dc, err)
		}
		switch m.Type {
		case wire.TypeAllocUpdate:
			b.applyAlloc(m.Alloc)
		case wire.TypePing:
			conn.Send(&wire.Message{Type: wire.TypePong, Seq: m.Seq})
		default:
			b.logf("broker %s: unexpected message %s", b.dc, m.Type)
		}
	}
}

// applyAlloc installs forwarding entries and rate limits from an
// allocation push, replacing the previous epoch's rules.
func (b *Broker) applyAlloc(u *wire.AllocUpdate) {
	if u == nil {
		return
	}
	now := time.Now()
	b.mu.Lock()
	// Every push replaces the table: the controller leaves zero-rate
	// tunnels out, so a label missing from the update carries nothing
	// (a demand recovery dropped must stop forwarding). A backup
	// activation keeps the limiter, and with it the token bucket, of
	// each label it carries on; a scheduled push starts fresh ones.
	old := b.entries
	b.entries = make(map[uint32]*ForwardingEntry, len(u.Tunnels))
	for _, t := range u.Tunnels {
		next := nextHopFor(b.dc, t.Hops)
		if next == "" {
			continue // tunnel does not traverse this DC
		}
		e, ok := b.entries[t.Label]
		if !ok && u.Backup {
			e, ok = old[t.Label]
		}
		if ok {
			e.NextHop = next
			e.Limiter.SetRate(t.Rate, now)
			b.entries[t.Label] = e
			continue
		}
		b.entries[t.Label] = &ForwardingEntry{
			Label:   t.Label,
			NextHop: next,
			Limiter: NewRateLimiter(t.Rate, 0.1, now),
		}
	}
	b.epoch = u.Epoch
	cb := b.onAlloc
	b.mu.Unlock()
	if cb != nil {
		cb(u)
	}
}

// nextHopFor returns the hop after dc in the tunnel's hop list, or ""
// if dc is not on the tunnel (or is its destination).
func nextHopFor(dc string, hops []string) string {
	for i := 0; i+1 < len(hops); i++ {
		if hops[i] == dc {
			return hops[i+1]
		}
	}
	return ""
}

// Lookup returns the forwarding entry for a label, if installed.
func (b *Broker) Lookup(label uint32) (*ForwardingEntry, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	e, ok := b.entries[label]
	return e, ok
}

// Epoch returns the allocation epoch last applied.
func (b *Broker) Epoch() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.epoch
}

// NumEntries returns the installed rule count.
func (b *Broker) NumEntries() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.entries)
}

// ReportLink sends a link up/down observation to the controller (the
// Network Agent's monitoring duty).
func (b *Broker) ReportLink(srcDC, dstDC string, up bool) error {
	b.mu.Lock()
	conn := b.conn
	b.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("broker %s: not connected", b.dc)
	}
	return conn.Send(&wire.Message{Type: wire.TypeLinkEvent, LinkEvent: &wire.LinkEvent{
		SrcDC: srcDC, DstDC: dstDC, Up: up, AtUnixMs: time.Now().UnixMilli(),
	}})
}

// ReportStats sends the current enforced rates to the controller.
func (b *Broker) ReportStats() error {
	b.mu.Lock()
	conn := b.conn
	rates := make(map[string]float64, len(b.entries))
	for label, e := range b.entries {
		rates[fmt.Sprintf("%#x", label)] = e.Limiter.Rate()
	}
	b.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("broker %s: not connected", b.dc)
	}
	return conn.Send(&wire.Message{Type: wire.TypeStats, Stats: &wire.Stats{DC: b.dc, Rates: rates}})
}

// Forward emulates the label-switched data plane: a packet of n bytes
// carrying label arrives at this DC's edge switch and is forwarded to
// the tunnel's next hop if (and only if) the entry exists and its
// enforced rate admits the packet. It returns the next-hop DC name.
func (b *Broker) Forward(label uint32, n int, now time.Time) (string, bool) {
	b.mu.Lock()
	e, ok := b.entries[label]
	b.mu.Unlock()
	if !ok {
		return "", false // no rule: drop (§4: ingress marks, others match)
	}
	if !e.Limiter.Allow(n, now) {
		return "", false // rate-limited by the Bandwidth Enforcer
	}
	return e.NextHop, true
}
