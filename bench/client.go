package main

import (
	"fmt"
	"time"

	"bate/internal/wire"
)

// client is one closed-loop tenant connection: it waits for each reply
// before it sends the next request.
type client struct {
	s    *stack
	conn *wire.Conn
	seq  uint64
	src  *stream
	// live holds the ids of this connection's own admitted demands,
	// oldest first; it withdraws only these.
	live []int
}

// opResult is the outcome of one request: its latency, how many
// demands it carried and how many of those were refused.
type opResult struct {
	lat    time.Duration
	n      int
	failed int
	subs   []wire.Submit // what a submit carried
}

func dialClient(s *stack, addr string, src *stream) (*client, error) {
	conn, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := conn.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "client", Codec: wire.CodecBinary}}); err != nil {
		conn.Close()
		return nil, fmt.Errorf("client hello: %w", err)
	}
	return &client{s: s, conn: conn, src: src}, nil
}

func (c *client) send(m *wire.Message) error {
	c.seq++
	m.Seq = c.seq
	if err := c.conn.SetDeadline(time.Now().Add(opTimeout)); err != nil {
		return err
	}
	return c.conn.Send(m)
}

// recv reads the reply to request seq and checks its type. An overload
// shed or an error frame is reported as an error: the workloads are
// sized so that neither happens.
func (c *client) recv(seq uint64, want wire.Type) (*wire.Message, error) {
	m, err := c.conn.Recv()
	if err != nil {
		return nil, fmt.Errorf("awaiting %s: %w", want, err)
	}
	switch {
	case m.Type == wire.TypeRetryAfter && m.RetryAfter != nil:
		return nil, fmt.Errorf("awaiting %s: shed (%s)", want, m.RetryAfter.Reason)
	case m.Type != want:
		return nil, fmt.Errorf("awaiting %s: got %s %s", want, m.Type, m.Error)
	case m.Seq != seq:
		return nil, fmt.Errorf("awaiting %s: reply seq %d, want %d", want, m.Seq, seq)
	}
	return m, nil
}

// submit sends the next n demands of the stream in one frame — a
// TypeSubmit for a single-demand workload, a TypeSubmitBatch otherwise
// — and times send → reply. Admitted demands join the book.
func (c *client) submit(n int, parent *span) (opResult, error) {
	subs := make([]wire.Submit, n)
	for i := range subs {
		subs[i] = c.src.next()
	}
	sp := c.s.tr.start("client.submit", parent, 0)
	defer sp.end()
	start := time.Now()
	var results []wire.AdmitResult
	if c.s.w.batch == 1 {
		if err := c.send(&wire.Message{Type: wire.TypeSubmit, Submit: &subs[0]}); err != nil {
			return opResult{}, err
		}
		m, err := c.recv(c.seq, wire.TypeAdmitResult)
		if err != nil {
			return opResult{}, err
		}
		results = []wire.AdmitResult{*m.AdmitResult}
	} else {
		if err := c.send(&wire.Message{Type: wire.TypeSubmitBatch, SubmitBatch: subs}); err != nil {
			return opResult{}, err
		}
		m, err := c.recv(c.seq, wire.TypeAdmitBatchResult)
		if err != nil {
			return opResult{}, err
		}
		results = m.AdmitBatchResult
	}
	res := opResult{lat: time.Since(start), n: n, subs: subs}
	sp.end()
	if len(results) != n {
		return res, fmt.Errorf("submit of %d demands answered with %d results", n, len(results))
	}
	for i, r := range results {
		if !r.Admitted {
			res.failed++
			continue
		}
		c.live = append(c.live, r.DemandID)
		c.s.bookAdd(r.DemandID, &subs[i])
	}
	return res, nil
}

// withdraw withdraws this connection's n oldest demands as one
// pipelined burst and times first send → last reply.
func (c *client) withdraw(n int, parent *span) (opResult, error) {
	n = min(n, len(c.live))
	ids := c.live[:n]
	c.live = c.live[n:]
	sp := c.s.tr.start("client.withdraw", parent, 0)
	defer sp.end()
	start := time.Now()
	for _, id := range ids {
		if err := c.send(&wire.Message{Type: wire.TypeWithdraw, WithdrawID: id}); err != nil {
			return opResult{}, err
		}
	}
	for i := range ids {
		if _, err := c.recv(c.seq-uint64(n-1-i), wire.TypePong); err != nil {
			return opResult{}, err
		}
	}
	res := opResult{lat: time.Since(start), n: n}
	sp.end()
	for _, id := range ids {
		c.s.bookRemove(id)
	}
	return res, nil
}

// status polls the controller's demand status.
func (c *client) status(parent *span) (*wire.StatusReply, opResult, error) {
	sp := c.s.tr.start("client.status", parent, 0)
	defer sp.end()
	start := time.Now()
	if err := c.send(&wire.Message{Type: wire.TypeStatus}); err != nil {
		return nil, opResult{}, err
	}
	m, err := c.recv(c.seq, wire.TypeStatusReply)
	if err != nil {
		return nil, opResult{}, err
	}
	return m.Status, opResult{lat: time.Since(start), n: 1}, nil
}

func (s *stack) bookAdd(id int, sub *wire.Submit) {
	d := asDemand(s.lay.net, sub, id)
	s.bookMu.Lock()
	s.book[id] = d
	s.bookMu.Unlock()
}

func (s *stack) bookRemove(id int) {
	s.bookMu.Lock()
	delete(s.book, id)
	s.bookMu.Unlock()
}
