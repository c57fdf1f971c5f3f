package controller

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"bate/internal/routing"
	"bate/internal/topo"
	"bate/internal/wire"
)

// A broker that connects while submits push must end at the
// controller's epoch: its late-joiner snapshot may not arrive after a
// newer push. Each trial connects every DC at once while submits push,
// checks that no broker ever receives an older epoch after a newer
// one, and then waits for every broker to hold the controller's epoch
// with nothing more to come.
func TestLateJoinerEndsAtControllerEpoch(t *testing.T) {
	n := topo.Testbed()
	ts := routing.Compute(n, routing.KShortest, 4)
	ctrl, err := New(Config{Net: n, Tunnels: ts, MaxFail: 2, Logf: silent})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go ctrl.Serve(ctx, ln)

	type joiner struct {
		conn *wire.Conn
		mu   sync.Mutex
		last uint64 // epoch of the last update applied
		seen bool
		back bool // an update older than the one before it arrived
	}
	join := func(dc string) *joiner {
		conn, err := wire.Dial(ln.Addr().String())
		if err != nil {
			t.Error(err)
			return nil
		}
		if err := conn.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "broker", DC: dc}}); err != nil {
			t.Error(err)
			return nil
		}
		j := &joiner{conn: conn}
		go func() {
			for {
				m, err := conn.Recv()
				if err != nil {
					return
				}
				if m.Type == wire.TypeAllocUpdate && m.Alloc != nil {
					j.mu.Lock()
					j.back = j.back || (j.seen && m.Alloc.Epoch < j.last)
					j.last, j.seen = m.Alloc.Epoch, true
					j.mu.Unlock()
				}
			}
		}()
		return j
	}

	const trials = 200
	var prev []*joiner
	for trial := 0; trial < trials && !t.Failed(); trial++ {
		for _, j := range prev {
			j.conn.Close()
		}
		joiners := make([]*joiner, n.NumNodes())
		var wg sync.WaitGroup
		for v := range joiners {
			wg.Add(1)
			go func() {
				defer wg.Done()
				joiners[v] = join(n.NodeName(topo.NodeID(v)))
			}()
		}
		for k := 0; k < 3; k++ {
			i := 3*trial + k
			src, dst := topo.NodeID(i%n.NumNodes()), topo.NodeID((i+1+i/n.NumNodes())%n.NumNodes())
			if src == dst {
				dst = (dst + 1) % topo.NodeID(n.NumNodes())
			}
			res := ctrl.submit(&wire.Submit{Src: n.NodeName(src), Dst: n.NodeName(dst), Bandwidth: 1, Target: 0.9, Charge: 1, RefundFrac: 0.1})
			if !res.Admitted {
				t.Fatalf("trial %d: submit refused: %+v", trial, res)
			}
		}
		wg.Wait()
		if t.Failed() {
			break
		}
		// Every joiner is registered and past its snapshot once it has
		// seen an update; from then on nothing else pushes, so the last
		// update each holds is final.
		deadline := time.Now().Add(5 * time.Second)
		for _, j := range joiners {
			for {
				_, epoch := ctrl.Snapshot()
				j.mu.Lock()
				last, seen, back := j.last, j.seen, j.back
				j.mu.Unlock()
				if back {
					t.Fatalf("trial %d: a broker received an older epoch after a newer one", trial)
				}
				if seen && last == epoch {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("trial %d: a broker holds epoch %d (seen %v), the controller is at %d", trial, last, seen, epoch)
				}
				time.Sleep(time.Millisecond)
			}
		}
		prev = joiners
	}
	for _, j := range prev {
		j.conn.Close()
	}
}
