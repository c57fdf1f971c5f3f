// Operations: the operator-facing tooling around the core algorithms —
// portable workload files, replaying a measured outage trace against a
// schedule, pricing link-capacity upgrades with LP shadow prices, and
// the stop-the-master failover drill with the durable store.
//
// Run with: go run ./examples/operations
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net"
	"os"
	"path/filepath"
	"strings"

	"bate/internal/alloc"
	"bate/internal/bate"
	"bate/internal/controller"
	"bate/internal/demand"
	"bate/internal/routing"
	"bate/internal/sim"
	"bate/internal/store"
	"bate/internal/topo"
	"bate/internal/wire"
)

func main() {
	network := topo.Testbed()
	tunnels := routing.Compute(network, routing.KShortest, 4)
	dc := func(s string) topo.NodeID {
		id, _ := network.NodeByName(s)
		return id
	}

	// --- 1. Workload files -------------------------------------------------
	demands := []*demand.Demand{
		{ID: 0, Pairs: []demand.PairDemand{{Src: dc("DC1"), Dst: dc("DC3"), Bandwidth: 600}},
			Target: 0.999, Start: 0, End: 300, Charge: 600, RefundFrac: 0.1},
		{ID: 1, Pairs: []demand.PairDemand{{Src: dc("DC2"), Dst: dc("DC6"), Bandwidth: 400}},
			Target: 0.99, Start: 0, End: 300, Charge: 400, RefundFrac: 0.1},
	}
	var buf bytes.Buffer
	if err := demand.Save(&buf, network, demands); err != nil {
		log.Fatal(err)
	}
	reloaded, err := demand.Load(bytes.NewReader(buf.Bytes()), network)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload round trip: %d demands, %d JSON bytes\n", len(reloaded), buf.Len())

	// --- 2. Replay a measured outage trace ---------------------------------
	// Zero out random failures so only the scripted outage fires.
	probs := make([]float64, network.NumLinks())
	quiet, err := network.WithFailProbs(probs)
	if err != nil {
		log.Fatal(err)
	}
	quietTunnels := routing.Compute(quiet, routing.KShortest, 4)
	cut, err := sim.ParseSchedule(strings.NewReader(`
# conduit cut takes the direct DC1-DC4 fiber down for 40 s
DC1 DC4 100 140
DC4 DC1 100 140
`), quiet)
	if err != nil {
		log.Fatal(err)
	}
	res, err := sim.RunTimeSim(sim.TimeSimConfig{
		Net: quiet, Tunnels: quietTunnels, Workload: reloaded,
		HorizonSec: 300, ScheduleEverySec: 300,
		TE: sim.TEConfig{Kind: sim.KindBATE}, Admission: sim.AdmitNone,
		Trace: cut.Events, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("trace replay: satisfaction %.2f%%, loss %.4f%% during a 40 s fiber cut\n",
		res.SatisfactionRatio()*100, res.LossRatio*100)

	// --- 3. Price capacity upgrades ----------------------------------------
	// Load the network close to saturation and ask which links are worth
	// upgrading: positive shadow price = Mbps of allocation saved per
	// extra Mbps of capacity.
	heavy := []*demand.Demand{
		{ID: 0, Pairs: []demand.PairDemand{{Src: dc("DC1"), Dst: dc("DC3"), Bandwidth: 900}}, Target: 0.99},
		{ID: 1, Pairs: []demand.PairDemand{{Src: dc("DC1"), Dst: dc("DC4"), Bandwidth: 900}}, Target: 0.99},
		{ID: 2, Pairs: []demand.PairDemand{{Src: dc("DC1"), Dst: dc("DC5"), Bandwidth: 900}}, Target: 0.95},
	}
	in := &alloc.Input{Net: network, Tunnels: tunnels, Demands: heavy}
	prices, err := bate.LinkPrices(in, bate.ScheduleOptions{MaxFail: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("link shadow prices (upgrade candidates first):")
	printed := 0
	for _, l := range network.Links() {
		if prices[l.ID] > 1e-6 {
			fmt.Printf("  %s->%s  %.4f\n",
				network.NodeName(l.Src), network.NodeName(l.Dst), prices[l.ID])
			printed++
		}
	}
	if printed == 0 {
		fmt.Println("  (no scarce links at this load)")
	}

	// --- 4. Stop the master: durable store + standby takeover ---------------
	// The same drill an operator runs before trusting failover in
	// production: admit through master A, kill it without warning, bring
	// up standby B on the same store, and check nothing acked was lost.
	quietLog := func(string, ...interface{}) {}
	storeDir, err := os.MkdirTemp("", "bate-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(storeDir)

	startMaster := func() (*controller.Controller, *store.Store, net.Listener, context.CancelFunc) {
		st, err := store.Open(storeDir, network, store.Options{NoSync: true, Logf: quietLog})
		if err != nil {
			log.Fatal(err)
		}
		ctrl, err := controller.New(controller.Config{
			Net: network, Tunnels: tunnels, MaxFail: 2, Store: st, Logf: quietLog,
		})
		if err != nil {
			log.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		go ctrl.Serve(ctx, ln)
		return ctrl, st, ln, cancel
	}
	submitOne := func(addr string, s *wire.Submit) *wire.AdmitResult {
		c, err := wire.Dial(addr)
		if err != nil {
			log.Fatal(err)
		}
		defer c.Close()
		if err := c.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "client"}}); err != nil {
			log.Fatal(err)
		}
		if err := c.Send(&wire.Message{Type: wire.TypeSubmit, Submit: s}); err != nil {
			log.Fatal(err)
		}
		reply, err := c.Recv()
		if err != nil || reply.AdmitResult == nil {
			log.Fatalf("submit reply %+v: %v", reply, err)
		}
		return reply.AdmitResult
	}

	_, stA, lnA, cancelA := startMaster()
	var lastID int
	for _, s := range []*wire.Submit{
		{Src: "DC1", Dst: "DC3", Bandwidth: 400, Target: 0.99, Charge: 400, RefundFrac: 0.1},
		{Src: "DC2", Dst: "DC6", Bandwidth: 300, Target: 0.95, Charge: 300, RefundFrac: 0.1},
		{Src: "DC1", Dst: "DC4", Bandwidth: 200, Target: 0.999, Charge: 200, RefundFrac: 0.1},
	} {
		r := submitOne(lnA.Addr().String(), s)
		fmt.Printf("master A admitted demand %d (%s)\n", r.DemandID, r.Method)
		lastID = r.DemandID
	}

	// Kill -9: stop serving, drop the store handle, and leave a torn
	// half-written record on the WAL as a real crash mid-append would.
	cancelA()
	lnA.Close()
	stA.Close()
	wal, err := os.OpenFile(filepath.Join(storeDir, "wal.log"), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		log.Fatal(err)
	}
	wal.Write([]byte{0, 0, 0, 99, 0xba, 0xdc})
	wal.Close()
	fmt.Println("master A killed mid-append (torn WAL tail left behind)")

	// Standby takeover: in production the Paxos elector picks B and only
	// the winner opens the shared store directory.
	ctrlB, stB, lnB, cancelB := startMaster()
	defer func() { cancelB(); lnB.Close(); stB.Close() }()
	nDemands, epoch := ctrlB.Snapshot()
	fmt.Printf("standby B restored %d demands at epoch %d from %s\n",
		nDemands, epoch, filepath.Base(storeDir))

	// A client whose ack raced the crash retries with the id it was
	// assigned; B answers idempotently instead of double-booking.
	retry := submitOne(lnB.Addr().String(), &wire.Submit{
		DemandID: lastID,
		Src:      "DC1", Dst: "DC4", Bandwidth: 200, Target: 0.999, Charge: 200, RefundFrac: 0.1,
	})
	fmt.Printf("retry of demand %d on B: admitted=%v method=%s\n",
		retry.DemandID, retry.Admitted, retry.Method)
}
