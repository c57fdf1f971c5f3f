// Command batectl submits BA demands to a running controller and
// withdraws them, and inspects/compacts a controller's durable state
// store offline.
//
// Usage:
//
//	batectl -controller localhost:7001 submit -src DC1 -dst DC4 -bw 500 -target 0.999
//	batectl -controller localhost:7001 withdraw -id 3
//	batectl store inspect -dir /var/lib/bate -topology Testbed6
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"sort"
	"time"

	"bate/internal/store"
	"bate/internal/topo"
	"bate/internal/wire"
)

func main() {
	addr := flag.String("controller", "localhost:7001", "controller address")
	retryMax := flag.Int("client-retry-max", 8, "retries when the controller sheds the request with a retry-after hint (overloaded controller); each retry backs off by the hinted delay with jitter")
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	if args[0] == "store" {
		// Offline store tooling: no controller connection.
		storeCmd(args[1:])
		return
	}
	conn, err := wire.Dial(*addr)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(&wire.Message{Type: wire.TypeHello, Hello: &wire.Hello{Role: "client", Codec: wire.CodecBinary}}); err != nil {
		log.Fatal(err)
	}

	switch args[0] {
	case "submit":
		fs := flag.NewFlagSet("submit", flag.ExitOnError)
		src := fs.String("src", "", "source DC")
		dst := fs.String("dst", "", "destination DC")
		bw := fs.Float64("bw", 0, "bandwidth (Mbps)")
		target := fs.Float64("target", 0.99, "availability target (fraction)")
		charge := fs.Float64("charge", 0, "charge (default: 1 per Mbps)")
		refund := fs.Float64("refund", 0.10, "refund fraction on SLA violation")
		fs.Parse(args[1:])
		if *charge == 0 {
			*charge = *bw
		}
		reply, err := sendRetry(conn, &wire.Message{Type: wire.TypeSubmit, Submit: &wire.Submit{
			Src: *src, Dst: *dst, Bandwidth: *bw, Target: *target,
			Charge: *charge, RefundFrac: *refund,
		}}, *retryMax)
		if err != nil {
			log.Fatal(err)
		}
		if reply.AdmitResult == nil {
			log.Fatalf("unexpected reply: %+v", reply)
		}
		r := reply.AdmitResult
		if r.Admitted {
			fmt.Printf("admitted: id=%d method=%s delay=%.2fms\n", r.DemandID, r.Method, r.DelayMs)
		} else {
			fmt.Printf("rejected: method=%s delay=%.2fms\n", r.Method, r.DelayMs)
			os.Exit(1)
		}
	case "status":
		reply, err := sendRetry(conn, &wire.Message{Type: wire.TypeStatus}, *retryMax)
		if err != nil {
			log.Fatal(err)
		}
		if reply.Status == nil {
			log.Fatalf("unexpected reply: %+v", reply)
		}
		fmt.Printf("epoch %d, %d demands\n", reply.Status.Epoch, len(reply.Status.Demands))
		for _, d := range reply.Status.Demands {
			met := "MET"
			if d.Achieved < d.Target {
				met = "AT RISK"
			}
			fmt.Printf("  id=%d %s->%s %.0f Mbps target=%.4g%% achieved=%.4g%% allocated=%.0f Mbps %s\n",
				d.DemandID, d.Src, d.Dst, d.Bandwidth, d.Target*100, d.Achieved*100, d.Allocated, met)
		}
	case "withdraw":
		fs := flag.NewFlagSet("withdraw", flag.ExitOnError)
		id := fs.Int("id", -1, "demand id")
		fs.Parse(args[1:])
		if *id < 0 {
			log.Fatal("batectl: -id is required")
		}
		if _, err := sendRetry(conn, &wire.Message{Type: wire.TypeWithdraw, WithdrawID: *id}, *retryMax); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("withdrawn: id=%d\n", *id)
	default:
		usage()
	}
}

// sendRetry sends m and waits for the reply, honoring the overload
// protocol: a TypeRetryAfter reply means the controller shed the
// request, so back off by the hinted delay (with jitter, so retrying
// clients do not re-collide) and resend, up to retryMax times.
func sendRetry(conn *wire.Conn, m *wire.Message, retryMax int) (*wire.Message, error) {
	for attempt := 0; ; attempt++ {
		if err := conn.Send(m); err != nil {
			return nil, err
		}
		reply, err := conn.Recv()
		if err != nil {
			return nil, err
		}
		if reply.Type != wire.TypeRetryAfter {
			return reply, nil
		}
		hint, reason := 50*time.Millisecond, "overloaded"
		if reply.RetryAfter != nil {
			if reply.RetryAfter.RetryAfterMs > 0 {
				hint = time.Duration(reply.RetryAfter.RetryAfterMs) * time.Millisecond
			}
			if reply.RetryAfter.Reason != "" {
				reason = reply.RetryAfter.Reason
			}
		}
		if attempt >= retryMax {
			return nil, fmt.Errorf("controller shed the request %d times (last: %s); giving up", attempt+1, reason)
		}
		d := time.Duration(float64(hint) * (0.5 + rand.Float64()))
		log.Printf("batectl: controller overloaded (%s), retrying in %v (%d/%d)", reason, d.Round(time.Millisecond), attempt+1, retryMax)
		time.Sleep(d)
	}
}

// storeCmd implements the offline store subcommands. Run these
// against a stopped controller's store directory (the store is
// single-writer; compacting under a live master would race it).
func storeCmd(args []string) {
	if len(args) == 0 {
		usage()
	}
	fs := flag.NewFlagSet("store "+args[0], flag.ExitOnError)
	dir := fs.String("dir", "", "store directory")
	topoName := fs.String("topology", "Testbed6", "built-in topology name or topology file path")
	fs.Parse(args[1:])
	if *dir == "" {
		log.Fatal("batectl: -dir is required")
	}
	net0, err := topo.Resolve(*topoName)
	if err != nil {
		log.Fatal(err)
	}
	switch args[0] {
	case "inspect":
		sum, err := store.Inspect(*dir, net0)
		if err != nil {
			log.Fatal(err)
		}
		printSummary(sum)
	case "compact":
		st, err := store.Open(*dir, net0, store.Options{})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close()
		before := st.WALRecords()
		if err := st.Compact(st.Restored()); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compacted: %d WAL records folded into snapshot\n", before)
		sum, err := store.Inspect(*dir, net0)
		if err != nil {
			log.Fatal(err)
		}
		printSummary(sum)
	default:
		usage()
	}
}

func printSummary(sum *store.Summary) {
	fmt.Printf("store %s\n", sum.Dir)
	if sum.SnapshotBytes < 0 {
		fmt.Println("  snapshot: none")
	} else {
		fmt.Printf("  snapshot: %d bytes, %d demands\n", sum.SnapshotBytes, sum.SnapshotDemands)
	}
	fmt.Printf("  wal: %d bytes, %d records", sum.WALBytes, sum.WALRecords)
	if sum.TornTail {
		fmt.Printf(" (torn tail: crash mid-append, truncated on next open)")
	}
	fmt.Println()
	types := make([]store.RecordType, 0, len(sum.RecordsByType))
	for t := range sum.RecordsByType {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, t := range types {
		fmt.Printf("    %-9s %d\n", t, sum.RecordsByType[t])
	}
	fmt.Printf("  replayed state: %d demands (%d with allocations), epoch %d, %d links down, next id %d\n",
		sum.Demands, sum.AllocatedDemands, sum.Epoch, sum.LinksDown, sum.NextID)
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  batectl [-controller addr] [-client-retry-max N] submit -src DC1 -dst DC4 -bw 500 [-target 0.999] [-charge N] [-refund 0.1]
  batectl [-controller addr] [-client-retry-max N] status
  batectl [-controller addr] [-client-retry-max N] withdraw -id N
  batectl store inspect -dir DIR [-topology NAME]
  batectl store compact -dir DIR [-topology NAME]`)
	os.Exit(2)
}
