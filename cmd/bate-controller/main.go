// Command bate-controller runs the central BATE controller (§4): it
// listens for broker and client connections, admits BA demands in near
// real time, reschedules periodically and precomputes failure backups.
//
// Usage:
//
//	bate-controller -listen :7001 -topology Testbed6 -period 10s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"bate/internal/controller"
	"bate/internal/overload"
	"bate/internal/parallel"
	"bate/internal/partition"
	"bate/internal/paxos"
	"bate/internal/routing"
	"bate/internal/store"
	"bate/internal/topo"
)

func main() {
	listen := flag.String("listen", ":7001", "listen address")
	topoName := flag.String("topology", "Testbed6", "built-in topology name or topology file path")
	period := flag.Duration("period", 10*time.Second, "online scheduler period")
	maxFail := flag.Int("maxfail", 2, "scenario pruning depth y")
	k := flag.Int("k", 4, "tunnels per pair (k-shortest paths)")
	replicaID := flag.Int("replica", 0, "replica id for master election (0 = standalone)")
	electPeers := flag.String("peers", "", "election peers as id=host:port,... (includes self)")
	electListen := flag.String("election-listen", "", "election listen address (required with -replica)")
	procs := flag.Int("procs", 0, "worker pool size for parallel admission/scheduling (0 = all cores)")
	storeDir := flag.String("store", "", "durable state store directory (WAL + snapshots; empty = in-memory only)")
	compactEvery := flag.Duration("compact-every", 5*time.Minute, "store compaction cadence (with -store)")
	noSync := flag.Bool("store-nosync", false, "skip fsync per WAL append (throughput over durability)")
	recoveryDeadline := flag.Duration("recovery-deadline", 2*time.Second, "failure-recovery deadline: backup hit, then budgeted optimal, then greedy floor within this bound")
	electDialTimeout := flag.Duration("election-dial-timeout", time.Second, "per-peer dial timeout during master election")
	electSendTimeout := flag.Duration("election-send-timeout", time.Second, "per-peer send deadline during master election")
	partitions := flag.Int("partitions", 0, "hierarchical scheduling: split the topology into k regions solved in parallel (0/1 = global LP)")
	partitionGap := flag.Float64("partition-gap", 0, "hierarchical scheduling: max relative optimality-gap bound before falling back to the global LP (0 = 2%)")
	maxInflight := flag.Int("max-inflight", 0, "overload protection: admission gate base concurrency; shed excess client requests with retry-after hints instead of queueing unboundedly (0 = disabled)")
	shedPrio := flag.String("shed-priority", "submit", "overload protection: least-critical class the gate may shed — submit (sheds submits and status polls) or status (sheds only status polls); withdrawals and link events are never shed (with -max-inflight)")
	rateLimit := flag.Float64("rate-limit", 0, "overload protection: per-client token-bucket rate (requests/sec, 0 = unlimited; with -max-inflight)")
	maintenance := flag.String("maintenance", "", "planned maintenance windows as SRC-DST:START:END[:LEAD],... with durations relative to startup (e.g. DC1-DC4:5m:15m:30s); each link drains LEAD before START and returns to service at END")
	flag.Parse()

	if *procs < 0 {
		log.Fatal("bate-controller: -procs must be >= 0")
	}
	parallel.SetDefaultSize(*procs)

	net0, err := topo.Resolve(*topoName)
	if err != nil {
		log.Fatal(err)
	}
	tunnels := routing.Compute(net0, routing.KShortest, *k)
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("bate-controller: %s on %s, scheduling every %v, %d workers",
		net0, ln.Addr(), *period, parallel.Default().Size())

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *replicaID > 0 {
		peers, err := parsePeers(*electPeers)
		if err != nil {
			log.Fatal(err)
		}
		if *electListen == "" {
			log.Fatal("bate-controller: -election-listen is required with -replica")
		}
		eln, err := net.Listen("tcp", *electListen)
		if err != nil {
			log.Fatal(err)
		}
		elector, err := controller.NewElector(paxos.NodeID(*replicaID), peers, *listen, log.Printf)
		if err != nil {
			log.Fatal(err)
		}
		elector.SetDialTimeout(*electDialTimeout)
		elector.SetSendTimeout(*electSendTimeout)
		leader, err := elector.Run(ctx, eln)
		if err != nil {
			log.Fatal(err)
		}
		if !elector.IsLeader() {
			log.Printf("bate-controller: replica %d standing by; master is %s", *replicaID, leader)
			<-ctx.Done()
			return
		}
		log.Printf("bate-controller: replica %d elected master", *replicaID)
	}

	// Only the election winner opens the store (single writer): a
	// promoted standby replays the dead master's WAL and takes over
	// with the full demand book instead of an empty one.
	cfg := controller.Config{
		Net: net0, Tunnels: tunnels, MaxFail: *maxFail, SchedulePeriod: *period,
		RecoveryDeadline: *recoveryDeadline,
	}
	if *maintenance != "" {
		windows, err := parseMaintenance(*maintenance, time.Now())
		if err != nil {
			log.Fatal(err)
		}
		cfg.Maintenance = windows
		log.Printf("bate-controller: %d maintenance windows scheduled", len(windows))
	}
	if *partitions > 1 {
		cfg.Partition = &partition.Options{Regions: *partitions, GapThreshold: *partitionGap}
		log.Printf("bate-controller: hierarchical scheduling over %d regions", *partitions)
	}
	if *maxInflight > 0 {
		prio, err := overload.ParsePriority(*shedPrio)
		if err != nil {
			log.Fatal(err)
		}
		cfg.Overload = &overload.Options{
			MaxInflight:   *maxInflight,
			ShedPriority:  prio,
			RatePerClient: *rateLimit,
		}
		log.Printf("bate-controller: admission gate: %d slots (adaptive), shedding %s and below, %g req/s per client",
			*maxInflight, prio, *rateLimit)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, net0, store.Options{NoSync: *noSync})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		cfg.Store = st
		cfg.CompactEvery = *compactEvery
		log.Printf("bate-controller: durable store at %s (%d WAL records replayed)",
			*storeDir, st.WALRecords())
	}
	ctrl, err := controller.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if err := ctrl.Serve(ctx, ln); err != nil {
		log.Fatal(err)
	}
}

// parseMaintenance parses "-maintenance SRC-DST:START:END[:LEAD],..."
// into maintenance windows; START/END/LEAD are Go durations measured
// from now (controller startup).
func parseMaintenance(s string, now time.Time) ([]controller.MaintenanceWindow, error) {
	var out []controller.MaintenanceWindow
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Split(part, ":")
		if len(fields) != 3 && len(fields) != 4 {
			return nil, fmt.Errorf("bate-controller: bad maintenance window %q (want SRC-DST:START:END[:LEAD])", part)
		}
		src, dst, ok := strings.Cut(fields[0], "-")
		if !ok || src == "" || dst == "" {
			return nil, fmt.Errorf("bate-controller: bad maintenance link %q (want SRC-DST)", fields[0])
		}
		start, err := time.ParseDuration(fields[1])
		if err != nil {
			return nil, fmt.Errorf("bate-controller: maintenance window %q: bad start: %v", part, err)
		}
		end, err := time.ParseDuration(fields[2])
		if err != nil {
			return nil, fmt.Errorf("bate-controller: maintenance window %q: bad end: %v", part, err)
		}
		if end <= start {
			return nil, fmt.Errorf("bate-controller: maintenance window %q ends before it starts", part)
		}
		w := controller.MaintenanceWindow{
			SrcDC: src, DstDC: dst,
			Start: now.Add(start), End: now.Add(end),
		}
		if len(fields) == 4 {
			lead, err := time.ParseDuration(fields[3])
			if err != nil || lead < 0 {
				return nil, fmt.Errorf("bate-controller: maintenance window %q: bad lead %q", part, fields[3])
			}
			w.Lead = lead
		}
		out = append(out, w)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bate-controller: -maintenance given but no windows parsed")
	}
	return out, nil
}

// parsePeers parses "1=host:port,2=host:port" into the election map.
func parsePeers(s string) (map[paxos.NodeID]string, error) {
	peers := make(map[paxos.NodeID]string)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kv := strings.SplitN(part, "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bate-controller: bad peer %q (want id=addr)", part)
		}
		id, err := strconv.Atoi(kv[0])
		if err != nil || id <= 0 {
			return nil, fmt.Errorf("bate-controller: bad peer id %q", kv[0])
		}
		peers[paxos.NodeID(id)] = kv[1]
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("bate-controller: -peers is required with -replica")
	}
	return peers, nil
}
