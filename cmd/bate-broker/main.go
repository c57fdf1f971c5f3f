// Command bate-broker runs a per-DC broker (§4): it keeps a long-lived
// TCP session to the controller, enforces pushed allocations with
// token-bucket limiters, and reports link events.
//
// Usage:
//
//	bate-broker -dc DC1 -controller localhost:7001
package main

import (
	"context"
	"flag"
	"log"
	"os/signal"
	"syscall"
	"time"

	"bate/internal/broker"
)

func main() {
	dc := flag.String("dc", "", "datacenter name (must match a topology node)")
	addr := flag.String("controller", "localhost:7001", "controller address")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats reporting period (0 = off)")
	flag.Parse()
	if *dc == "" {
		log.Fatal("bate-broker: -dc is required")
	}

	b := broker.New(*dc, *addr)
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *statsEvery > 0 {
		go func() {
			t := time.NewTicker(*statsEvery)
			defer t.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-t.C:
					if err := b.ReportStats(); err != nil {
						log.Printf("bate-broker: stats: %v", err)
					}
				}
			}
		}()
	}
	log.Printf("bate-broker: %s connecting to %s", *dc, *addr)
	if err := b.Run(ctx); err != nil {
		log.Fatal(err)
	}
}
