// Package wire implements the communication channel of §4: framed
// messages over long-lived TCP connections between the central
// controller, the per-DC brokers, and user clients.
//
// Every frame, from the first byte of a connection on, uses one binary
// codec: a fixed header (magic 0xBA, version, type tag, uvarint body
// length) followed by a hand-rolled per-type body. Paxos election
// traffic rides the same frames with a JSON body (see tagJSONMsg).
// A frame that does not start with the magic byte fails with
// ErrBadMagic.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"bate/internal/metrics"
)

// MaxFrame bounds a frame body (1 MiB) on both the send and the
// receive side; larger frames fail with ErrFrameTooLarge, so a corrupt
// or hostile length header cannot force a large allocation.
const MaxFrame = 1 << 20

// Type discriminates messages.
type Type string

// Message types.
const (
	TypeHello       Type = "hello"        // broker/client -> controller
	TypeSubmit      Type = "submit"       // client -> controller: BA demand
	TypeAdmitResult Type = "admit-result" // controller -> client
	// TypeSubmitBatch submits several demands at once; the controller
	// admits them as one batch (parallel speculation, serial-equivalent
	// decisions) and answers with TypeAdmitBatchResult.
	TypeSubmitBatch      Type = "submit-batch"       // client -> controller
	TypeAdmitBatchResult Type = "admit-batch-result" // controller -> client
	TypeAllocUpdate      Type = "alloc-update"       // controller -> broker
	TypeLinkEvent        Type = "link-event"         // broker -> controller
	TypeWithdraw         Type = "withdraw"           // client -> controller: demand done
	TypeStats            Type = "stats"              // broker -> controller
	TypePing             Type = "ping"
	TypePong             Type = "pong"
	TypeError            Type = "error"
	TypePaxos            Type = "paxos"  // controller-replica election traffic
	TypeStatus           Type = "status" // client -> controller: demand status query
	TypeStatusReply      Type = "status-reply"
	// TypeRetryAfter is the controller's explicit overload reject: the
	// request was shed (never silently dropped) and the client should
	// retry after the hinted backoff plus its own jitter.
	TypeRetryAfter Type = "retry-after"
)

// Hello announces a peer. Role is "broker" or "client"; DC names the
// broker's datacenter. Codec is a reserved byte that receivers ignore.
// Peers set it to CodecBinary so that an older controller, which
// picked its reply codec from this byte, still answers in binary.
type Hello struct {
	Role  string `json:"role"`
	DC    string `json:"dc,omitempty"`
	Codec Codec  `json:"codec,omitempty"`
}

// Submit carries a BA demand request: bandwidth (Mbps) between two
// DCs with an availability target, a charge and a refund fraction.
type Submit struct {
	DemandID   int     `json:"demand_id"`
	Src        string  `json:"src_dc"`
	Dst        string  `json:"dst_dc"`
	Bandwidth  float64 `json:"bandwidth_mbps"`
	Target     float64 `json:"target"`
	Charge     float64 `json:"charge"`
	RefundFrac float64 `json:"refund_frac"`
}

// AdmitResult answers a Submit.
type AdmitResult struct {
	DemandID int    `json:"demand_id"`
	Admitted bool   `json:"admitted"`
	Method   string `json:"method"`
	// DelayMs is the controller-side admission latency.
	DelayMs float64 `json:"delay_ms"`
}

// TunnelAlloc is one tunnel's share of a demand's bandwidth. Label is
// the 24-bit forwarding label (12-bit demand, 12-bit tunnel; §4).
type TunnelAlloc struct {
	Label uint32   `json:"label"`
	Hops  []string `json:"hops"` // DC names, source first
	Rate  float64  `json:"rate_mbps"`
}

// AllocUpdate pushes the current allocations relevant to one broker.
type AllocUpdate struct {
	Epoch   uint64        `json:"epoch"`
	Tunnels []TunnelAlloc `json:"tunnels"`
	// Backup indicates this is a precomputed failure backup being
	// activated rather than a scheduled allocation.
	Backup bool `json:"backup,omitempty"`
}

// LinkEvent reports a link state change observed by a broker's
// network agent.
type LinkEvent struct {
	SrcDC    string  `json:"src_dc"`
	DstDC    string  `json:"dst_dc"`
	Up       bool    `json:"up"`
	AtUnixMs int64   `json:"at_unix_ms"`
	RateMbps float64 `json:"rate_mbps,omitempty"`
}

// Stats carries a broker's periodic rate observations.
type Stats struct {
	DC    string             `json:"dc"`
	Rates map[string]float64 `json:"rates_mbps"`
}

// DemandStatus is one demand's line in a status reply.
type DemandStatus struct {
	DemandID  int     `json:"demand_id"`
	Src       string  `json:"src_dc"`
	Dst       string  `json:"dst_dc"`
	Bandwidth float64 `json:"bandwidth_mbps"`
	Target    float64 `json:"target"`
	// Achieved is the controller's current availability estimate for
	// the installed allocation (post-processing over failure
	// scenarios).
	Achieved float64 `json:"achieved"`
	// Allocated is the bandwidth currently reserved across tunnels.
	Allocated float64 `json:"allocated_mbps"`
}

// StatusReply answers a TypeStatus query.
type StatusReply struct {
	Demands []DemandStatus `json:"demands"`
	Epoch   uint64         `json:"epoch"`
	// Counters is a snapshot of the controller's internal metrics
	// (admissions, scheduling solves, scenario-cache hit rates, worker
	// pool usage).
	Counters map[string]int64 `json:"counters,omitempty"`
}

// RetryAfter is the payload of a TypeRetryAfter frame: an explicit
// overload reject. RetryAfterMs is the controller's backoff hint
// (clients add their own jitter so shed herds do not re-arrive in
// sync); Reason names the shed cause (see internal/overload).
type RetryAfter struct {
	RetryAfterMs int64  `json:"retry_after_ms"`
	Reason       string `json:"reason,omitempty"`
}

// PaxosMsg carries one Paxos protocol message between controller
// replicas (§4: master election). Paxos frames carry a JSON body
// (tagJSONMsg); election traffic is too rare to earn a hand-rolled
// body.
type PaxosMsg struct {
	Kind           int8   `json:"kind"`
	From           int    `json:"from"`
	To             int    `json:"to"`
	BallotRound    uint64 `json:"ballot_round"`
	BallotNode     int    `json:"ballot_node"`
	AccBallotRound uint64 `json:"acc_ballot_round,omitempty"`
	AccBallotNode  int    `json:"acc_ballot_node,omitempty"`
	AccValue       string `json:"acc_value,omitempty"`
	HasAccepted    bool   `json:"has_accepted,omitempty"`
	Value          string `json:"value,omitempty"`
}

// Message is the frame envelope; exactly one payload field matching
// Type is set.
type Message struct {
	Type Type   `json:"type"`
	Seq  uint64 `json:"seq,omitempty"`
	// DeadlineMs is the sender's request budget in milliseconds: how
	// long the sender is still willing to wait for the answer. The
	// controller's admission gate sheds a request it cannot start
	// within this budget instead of doing work nobody will read. Zero
	// means no deadline. A non-zero deadline promotes the frame to
	// header version 2 (older frames stay version 1, so peers that
	// never set deadlines interoperate unchanged).
	DeadlineMs  int64        `json:"deadline_ms,omitempty"`
	Hello       *Hello       `json:"hello,omitempty"`
	Submit      *Submit      `json:"submit,omitempty"`
	AdmitResult *AdmitResult `json:"admit_result,omitempty"`
	// SubmitBatch/AdmitBatchResult carry TypeSubmitBatch requests and
	// their per-demand answers, index-aligned with the request.
	SubmitBatch      []Submit      `json:"submit_batch,omitempty"`
	AdmitBatchResult []AdmitResult `json:"admit_batch_result,omitempty"`
	Alloc            *AllocUpdate  `json:"alloc,omitempty"`
	LinkEvent        *LinkEvent    `json:"link_event,omitempty"`
	Stats            *Stats        `json:"stats,omitempty"`
	Paxos            *PaxosMsg     `json:"paxos,omitempty"`
	Status           *StatusReply  `json:"status,omitempty"`
	RetryAfter       *RetryAfter   `json:"retry_after,omitempty"`
	WithdrawID       int           `json:"withdraw_id,omitempty"`
	Error            string        `json:"error,omitempty"`
}

// Wire-level metrics, reported through the process-wide registry and
// surfaced in StatusReply.Counters.
var (
	mFramesSent = metrics.NewCounter("wire.frames_sent")
	mFramesRecv = metrics.NewCounter("wire.frames_recv")
	mBytesSent  = metrics.NewCounter("wire.bytes_sent")
	mBytesRecv  = metrics.NewCounter("wire.bytes_recv")
	mFlushes    = metrics.NewCounter("wire.flushes")
	mOversize   = metrics.NewCounter("wire.frame_too_large")
	mShortReads = metrics.NewCounter("wire.short_reads")
	mDecodeErrs = metrics.NewCounter("wire.decode_errors")
	mEnqRejects = metrics.NewCounter("wire.enqueue_rejects")
)

// bufPool recycles frame encode/decode buffers across connections.
// Buffers that grew past 64 KiB are dropped rather than pooled so a
// single jumbo frame does not pin memory forever.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

const maxPooledBuf = 64 << 10

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) > maxPooledBuf {
		return
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
}

// qframe is one encoded frame queued for the coalescing writer: the
// pooled storage buffer plus the offset where the frame begins.
type qframe struct {
	bp  *[]byte
	off int
}

// Conn is a framed, concurrency-safe message connection. Reads and
// writes may proceed concurrently; writes are serialized internally.
type Conn struct {
	nc   net.Conn
	r    *bufio.Reader
	idle time.Duration

	wmu     sync.Mutex
	w       *bufio.Writer
	pending atomic.Int32 // senders between encode and write (sync mode)

	// strIntern dedups decoded strings across this connection's
	// frames; touched only by the reader goroutine.
	strIntern map[string]string

	// Coalescing mode (EnableCoalescing): Send enqueues encoded
	// frames; a single writer goroutine drains bursts and flushes once
	// per burst instead of once per frame.
	coalesce bool
	sendq    chan qframe
	qgrace   time.Duration
	closing  chan struct{}
	drained  chan struct{}
	werr     atomic.Value // sticky write error (error)

	once     sync.Once
	closeErr error
}

// SetIdleTimeout bounds how long Recv waits for the remainder of a
// frame once its first byte has arrived. Waiting for a frame to
// *start* is never bounded — long-lived control channels sit idle by
// design — but a peer that goes silent mid-frame (a half-written
// frame from a crashed or wedged sender) fails the read instead of
// blocking the reader goroutine forever. Zero (the default) disables
// the bound. Set before handing the Conn to a reader goroutine.
func (c *Conn) SetIdleTimeout(d time.Duration) { c.idle = d }

// New wraps an established net.Conn.
func New(nc net.Conn) *Conn {
	return &Conn{nc: nc, r: bufio.NewReader(nc), w: bufio.NewWriter(nc)}
}

// Dial connects to addr with a sane timeout and wraps the connection.
func Dial(addr string) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		// Long-lived control channel: keep-alives detect dead peers.
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
		tc.SetNoDelay(true)
	}
	return New(nc), nil
}

// EnableCoalescing switches the connection to an asynchronous writer:
// Send enqueues encoded frames and returns, and a dedicated goroutine
// writes queued frames back-to-back, flushing once per burst instead
// of once per frame. Under pipelined load this collapses hundreds of
// small syscalls into one. The cost is weaker error reporting — a
// write failure surfaces on a *later* Send as a sticky error — and
// that SetWriteDeadline no longer bounds an individual Send, so the
// election path must NOT use it. Call once, before the Conn is shared
// between goroutines; the controller enables it on accepted sessions.
func (c *Conn) EnableCoalescing() {
	if c.coalesce {
		return
	}
	c.coalesce = true
	c.sendq = make(chan qframe, SendQueueDepth)
	if c.qgrace == 0 {
		c.qgrace = DefaultEnqueueGrace
	}
	c.closing = make(chan struct{})
	c.drained = make(chan struct{})
	go c.writeLoop()
}

// Coalescing-writer bounds. SendQueueDepth is the hard cap on queued
// frames per connection; DefaultEnqueueGrace is how long a Send waits
// for a place in a full queue before declaring the peer slow. Together
// they bound how many pooled frame buffers one stalled peer can pin:
// depth × MaxFrame worst-case, instead of "until Close" before.
const (
	SendQueueDepth      = 256
	DefaultEnqueueGrace = 100 * time.Millisecond
)

// SetEnqueueGrace overrides DefaultEnqueueGrace (how long a Send may
// block on a full coalescing queue before failing with
// ErrSendQueueFull). Call before EnableCoalescing.
func (c *Conn) SetEnqueueGrace(d time.Duration) { c.qgrace = d }

// encodeFrame appends one framed message to b. It returns the
// (possibly grown) buffer and the offset where the frame starts: the
// header space is reserved up front and backfilled so the body is
// encoded exactly once, with no copy.
func encodeFrame(b []byte, m *Message) ([]byte, int, error) {
	const maxHdr = 3 + binary.MaxVarintLen32
	b = append(b, make([]byte, maxHdr)...)
	b, tag, ver, err := appendBinaryBody(b, m)
	if err != nil {
		return b, 0, err
	}
	bodyLen := len(b) - maxHdr
	if bodyLen > MaxFrame {
		return b, 0, fmt.Errorf("wire: frame of %d bytes exceeds max %d: %w", bodyLen, MaxFrame, ErrFrameTooLarge)
	}
	var vbuf [binary.MaxVarintLen32]byte
	vn := binary.PutUvarint(vbuf[:], uint64(bodyLen))
	off := maxHdr - 3 - vn
	b[off] = binaryMagic
	b[off+1] = ver
	b[off+2] = tag
	copy(b[off+3:maxHdr], vbuf[:vn])
	return b, off, nil
}

// Send writes one message frame.
func (c *Conn) Send(m *Message) error {
	bp := getBuf()
	stored, off, err := encodeFrame((*bp)[:0], m)
	*bp = stored[:0]
	if err != nil {
		putBuf(bp)
		return err
	}
	*bp = stored
	if c.coalesce {
		return c.enqueue(qframe{bp, off})
	}
	return c.writeFrame(qframe{bp, off})
}

// writeFrame writes one frame synchronously. Concurrent senders
// coalesce flushes opportunistically: only the last sender with no
// successor pending pays the flush.
func (c *Conn) writeFrame(f qframe) error {
	frame := (*f.bp)[f.off:]
	c.pending.Add(1)
	c.wmu.Lock()
	_, err := c.w.Write(frame)
	if c.pending.Add(-1) == 0 && err == nil {
		if err = c.w.Flush(); err == nil {
			mFlushes.Inc()
		}
	}
	c.wmu.Unlock()
	mFramesSent.Inc()
	mBytesSent.Add(int64(len(frame)))
	putBuf(f.bp)
	if err != nil {
		return fmt.Errorf("wire: write: %w", err)
	}
	return nil
}

// enqueue hands a frame to the coalescing writer. The queue is
// bounded: a frame that cannot find a place within the enqueue grace
// means the peer has stopped draining its TCP window, and the
// connection fails sticky with ErrSendQueueFull so the owner (the
// controller's broker push path) can evict the slow peer instead of
// letting it pin frame buffers indefinitely.
func (c *Conn) enqueue(f qframe) error {
	if e, ok := c.werr.Load().(error); ok && e != nil {
		putBuf(f.bp)
		return fmt.Errorf("wire: write: %w", e)
	}
	select {
	case c.sendq <- f:
		return nil
	case <-c.closing:
		putBuf(f.bp)
		return net.ErrClosed
	default:
	}
	timer := time.NewTimer(c.qgrace)
	defer timer.Stop()
	select {
	case c.sendq <- f:
		return nil
	case <-c.closing:
		putBuf(f.bp)
		return net.ErrClosed
	case <-timer.C:
		putBuf(f.bp)
		mEnqRejects.Inc()
		c.werr.Store(ErrSendQueueFull)
		return fmt.Errorf("wire: enqueue: %w", ErrSendQueueFull)
	}
}

// writeLoop is the coalescing writer: it drains every queued frame
// back-to-back and flushes only when the queue runs empty, then
// blocks for the next frame. On Close it drains what is queued,
// flushes, and exits.
func (c *Conn) writeLoop() {
	defer close(c.drained)
	writeOne := func(f qframe) {
		frame := (*f.bp)[f.off:]
		if e, ok := c.werr.Load().(error); !ok || e == nil {
			if _, err := c.w.Write(frame); err != nil {
				c.werr.Store(err)
			}
		}
		mFramesSent.Inc()
		mBytesSent.Add(int64(len(frame)))
		putBuf(f.bp)
	}
	flush := func() {
		if e, ok := c.werr.Load().(error); ok && e != nil {
			return
		}
		if err := c.w.Flush(); err != nil {
			c.werr.Store(err)
			return
		}
		mFlushes.Inc()
	}
	for {
		select {
		case f := <-c.sendq:
			writeOne(f)
			for done := false; !done; {
				select {
				case f := <-c.sendq:
					writeOne(f)
				default:
					done = true
				}
			}
			flush()
		case <-c.closing:
			for done := false; !done; {
				select {
				case f := <-c.sendq:
					writeOne(f)
				default:
					done = true
				}
			}
			flush()
			return
		}
	}
}

// Recv reads the next message frame, blocking until one arrives or
// the connection fails. A frame must open with the magic byte 0xBA;
// anything else fails with ErrBadMagic. With an idle timeout set
// (SetIdleTimeout), the wait for the first byte is unbounded but the
// rest of the frame must arrive within the timeout.
func (c *Conn) Recv() (*Message, error) {
	first, err := c.r.ReadByte()
	if err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	if first != binaryMagic {
		mDecodeErrs.Inc()
		return nil, fmt.Errorf("wire: frame starts with %#02x: %w", first, ErrBadMagic)
	}
	if c.idle > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.idle))
		defer c.nc.SetReadDeadline(time.Time{})
	}
	ver, err := c.r.ReadByte()
	if err != nil {
		mShortReads.Inc()
		return nil, fmt.Errorf("wire: read version: %w: %w", ErrShortRead, err)
	}
	if ver < binaryVersion || ver > binaryVersionDeadline {
		mDecodeErrs.Inc()
		return nil, fmt.Errorf("wire: frame version %d: %w", ver, ErrBadVersion)
	}
	tag, err := c.r.ReadByte()
	if err != nil {
		mShortReads.Inc()
		return nil, fmt.Errorf("wire: read tag: %w: %w", ErrShortRead, err)
	}
	n, err := binary.ReadUvarint(c.r)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			mShortReads.Inc()
			return nil, fmt.Errorf("wire: read length: %w: %w", ErrShortRead, err)
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			mShortReads.Inc()
			return nil, fmt.Errorf("wire: read length: %w: %w", ErrShortRead, err)
		}
		mDecodeErrs.Inc()
		return nil, fmt.Errorf("wire: read length: %w: %v", ErrBadFrame, err)
	}
	if n > MaxFrame {
		mOversize.Inc()
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds max %d: %w", n, MaxFrame, ErrFrameTooLarge)
	}
	bp := getBuf()
	if cap(*bp) < int(n) {
		*bp = make([]byte, n)
	}
	body := (*bp)[:n]
	if _, err := io.ReadFull(c.r, body); err != nil {
		putBuf(bp)
		mShortReads.Inc()
		return nil, fmt.Errorf("wire: read body: %w: %w", ErrShortRead, err)
	}
	mBytesRecv.Add(int64(n) + 3)
	if c.strIntern == nil {
		c.strIntern = make(map[string]string, 64)
	}
	m, err := decodeBinaryBody(tag, ver, body, c.strIntern)
	putBuf(bp)
	if err != nil {
		mDecodeErrs.Inc()
		if !errors.Is(err, ErrBadFrame) {
			err = fmt.Errorf("%w: %v", ErrBadFrame, err)
		}
		return nil, fmt.Errorf("wire: decode tag %d: %w", tag, err)
	}
	mFramesRecv.Inc()
	return m, nil
}

// SetDeadline bounds the next read/write.
func (c *Conn) SetDeadline(t time.Time) error { return c.nc.SetDeadline(t) }

// SetWriteDeadline bounds the next write, so a send to a wedged peer
// fails instead of blocking the sender behind a full TCP window. Only
// meaningful in the default synchronous write mode (the election path
// relies on it); a coalescing Conn's writes happen on the writer
// goroutine instead. Clear with the zero time.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.nc.SetWriteDeadline(t) }

// Close shuts the connection down (idempotent). A coalescing Conn
// first stops intake and gives the writer a bounded grace period to
// drain and flush queued frames, so Close right after Send does not
// drop the frame on the floor.
func (c *Conn) Close() error {
	c.once.Do(func() {
		if c.coalesce {
			close(c.closing)
			select {
			case <-c.drained:
			case <-time.After(250 * time.Millisecond):
				// Writer is wedged on a dead peer; closing the socket
				// below unblocks it.
			}
		}
		c.closeErr = c.nc.Close()
	})
	return c.closeErr
}

// RemoteAddr exposes the peer address for logging.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// Label packs a demand id and tunnel id into the 24-bit VxLAN-style
// forwarding label of §4 (first 12 bits demand, last 12 bits tunnel).
func Label(demandID, tunnelID int) (uint32, error) {
	if demandID < 0 || demandID >= 1<<12 {
		return 0, fmt.Errorf("wire: demand id %d outside 12 bits", demandID)
	}
	if tunnelID < 0 || tunnelID >= 1<<12 {
		return 0, fmt.Errorf("wire: tunnel id %d outside 12 bits", tunnelID)
	}
	return uint32(demandID)<<12 | uint32(tunnelID), nil
}

// SplitLabel unpacks a forwarding label.
func SplitLabel(label uint32) (demandID, tunnelID int) {
	return int(label >> 12 & 0xfff), int(label & 0xfff)
}
