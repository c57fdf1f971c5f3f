package broker

import (
	"testing"
	"time"

	"bate/internal/wire"
)

func TestRateLimiterBasics(t *testing.T) {
	now := time.Unix(0, 0)
	rl := NewRateLimiter(8, 1, now) // 8 Mbps = 1 MB/s, 1s burst
	if got := rl.Rate(); got != 8 {
		t.Fatalf("Rate = %v", got)
	}
	// Bucket starts full: 1 MB available.
	if !rl.Allow(1_000_000, now) {
		t.Fatal("full bucket should allow 1 MB")
	}
	if rl.Allow(1, now) {
		t.Fatal("empty bucket should refuse")
	}
	// After 0.5 s, ~500 KB refilled.
	later := now.Add(500 * time.Millisecond)
	if !rl.Allow(400_000, later) {
		t.Fatal("refill should allow 400 KB after 0.5s")
	}
	if rl.Allow(200_000, later) {
		t.Fatal("over-budget send should be refused")
	}
}

func TestRateLimiterCapsAtBurst(t *testing.T) {
	now := time.Unix(0, 0)
	rl := NewRateLimiter(8, 1, now)
	// After a long idle the bucket must not exceed one burst.
	much := now.Add(time.Hour)
	if !rl.Allow(1_000_000, much) {
		t.Fatal("burst should be available")
	}
	if rl.Allow(1_000_000, much) {
		t.Fatal("bucket must cap at one burst second")
	}
}

func TestRateLimiterSetRate(t *testing.T) {
	now := time.Unix(0, 0)
	rl := NewRateLimiter(8, 1, now)
	rl.SetRate(80, now)
	if got := rl.Rate(); got != 80 {
		t.Fatalf("Rate = %v after SetRate", got)
	}
	// Tokens clamp to the new burst (10 MB) - already below it.
	if !rl.Allow(1_000_000, now) {
		t.Fatal("tokens should persist across SetRate")
	}
	// Rate decrease clamps tokens down.
	rl2 := NewRateLimiter(80, 1, now)
	rl2.SetRate(8, now)
	if rl2.Allow(2_000_000, now) {
		t.Fatal("tokens must clamp to the lower burst")
	}
	if rl.Allow(-1, now) {
		t.Fatal("negative size must be refused")
	}
}

func TestRateLimiterSustainedRate(t *testing.T) {
	now := time.Unix(0, 0)
	rl := NewRateLimiter(8, 0.1, now) // 1 MB/s
	sent := 0
	const chunk = 10_000
	for i := 0; i < 2000; i++ {
		now = now.Add(time.Millisecond)
		for rl.Allow(chunk, now) {
			sent += chunk
		}
	}
	// 2 s at 1 MB/s ≈ 2 MB (plus one burst).
	if sent < 1_900_000 || sent > 2_300_000 {
		t.Fatalf("sustained send %d bytes over 2s, want ≈ 2 MB", sent)
	}
}

func TestNextHopFor(t *testing.T) {
	hops := []string{"DC1", "DC2", "DC5", "DC4"}
	cases := []struct{ dc, want string }{
		{"DC1", "DC2"},
		{"DC2", "DC5"},
		{"DC5", "DC4"},
		{"DC4", ""}, // destination forwards nothing
		{"DC9", ""},
	}
	for _, c := range cases {
		if got := nextHopFor(c.dc, hops); got != c.want {
			t.Errorf("nextHopFor(%s) = %q, want %q", c.dc, got, c.want)
		}
	}
}

func TestApplyAlloc(t *testing.T) {
	b := New("DC2", "unused:0")
	b.SetLogf(func(string, ...interface{}) {})
	label1, _ := wire.Label(1, 0)
	label2, _ := wire.Label(2, 1)
	b.applyAlloc(&wire.AllocUpdate{
		Epoch: 3,
		Tunnels: []wire.TunnelAlloc{
			{Label: label1, Hops: []string{"DC1", "DC2", "DC3"}, Rate: 100},
			{Label: label2, Hops: []string{"DC4", "DC5"}, Rate: 50}, // not via DC2
		},
	})
	if b.Epoch() != 3 {
		t.Fatalf("epoch = %d", b.Epoch())
	}
	if b.NumEntries() != 1 {
		t.Fatalf("entries = %d, want 1 (only the DC2 tunnel)", b.NumEntries())
	}
	e, ok := b.Lookup(label1)
	if !ok || e.NextHop != "DC3" || e.Limiter.Rate() != 100 {
		t.Fatalf("entry %+v", e)
	}
	// A scheduled (non-backup) push replaces the table.
	b.applyAlloc(&wire.AllocUpdate{Epoch: 4, Tunnels: nil})
	if b.NumEntries() != 0 {
		t.Fatal("scheduled push must replace the table")
	}
	// A backup push layers on top.
	b.applyAlloc(&wire.AllocUpdate{
		Epoch: 5, Backup: true,
		Tunnels: []wire.TunnelAlloc{{Label: label1, Hops: []string{"DC2", "DC3"}, Rate: 10}},
	})
	if b.NumEntries() != 1 {
		t.Fatal("backup push must install entries")
	}
}

func TestApplyAllocUpdatesExistingEntry(t *testing.T) {
	b := New("DC1", "unused:0")
	b.SetLogf(func(string, ...interface{}) {})
	label, _ := wire.Label(7, 2)
	push := func(rate float64, backup bool) {
		b.applyAlloc(&wire.AllocUpdate{
			Epoch: 1, Backup: backup,
			Tunnels: []wire.TunnelAlloc{{Label: label, Hops: []string{"DC1", "DC2"}, Rate: rate}},
		})
	}
	push(100, false)
	push(40, true) // backup update reuses the limiter
	e, _ := b.Lookup(label)
	if e.Limiter.Rate() != 40 {
		t.Fatalf("rate = %v, want 40", e.Limiter.Rate())
	}
}

// The controller leaves zero-rate tunnels out of a push, so a backup
// activation that drops a demand carries none of its labels. The
// demand must stop forwarding, not keep its pre-failure rate over the
// links recovery re-planned; a label the backup carries on keeps its
// limiter.
func TestBackupDropsLabelsItDoesNotCarry(t *testing.T) {
	b := New("DC1", "unused:0")
	b.SetLogf(func(string, ...interface{}) {})
	label1, _ := wire.Label(1, 0)
	label2, _ := wire.Label(2, 0)
	b.applyAlloc(&wire.AllocUpdate{
		Epoch: 1,
		Tunnels: []wire.TunnelAlloc{
			{Label: label1, Hops: []string{"DC1", "DC2"}, Rate: 100},
			{Label: label2, Hops: []string{"DC1", "DC3"}, Rate: 50},
		},
	})
	before, _ := b.Lookup(label1)
	b.applyAlloc(&wire.AllocUpdate{
		Epoch: 2, Backup: true,
		Tunnels: []wire.TunnelAlloc{{Label: label1, Hops: []string{"DC1", "DC4", "DC2"}, Rate: 80}},
	})
	if _, ok := b.Lookup(label2); ok {
		t.Fatal("label 2, absent from the backup, still forwards")
	}
	if _, ok := b.Forward(label2, 100, time.Now()); ok {
		t.Fatal("a packet of label 2 was forwarded")
	}
	e, ok := b.Lookup(label1)
	if !ok || e.NextHop != "DC4" || e.Limiter.Rate() != 80 {
		t.Fatalf("label 1 after the backup: %+v", e)
	}
	if e.Limiter != before.Limiter {
		t.Fatal("the backup replaced label 1's limiter")
	}
	if b.NumEntries() != 1 {
		t.Fatalf("entries = %d, want 1", b.NumEntries())
	}
}

func TestReportWithoutConnection(t *testing.T) {
	b := New("DC1", "unused:0")
	if err := b.ReportLink("DC1", "DC2", false); err == nil {
		t.Fatal("expected not-connected error")
	}
	if err := b.ReportStats(); err == nil {
		t.Fatal("expected not-connected error")
	}
}

// End-to-end data plane: a packet walks the tunnel DC1→DC2→DC5→DC4
// through each broker's forwarding table under rate limiting.
func TestForwardAlongTunnel(t *testing.T) {
	hops := []string{"DC1", "DC2", "DC5", "DC4"}
	label, _ := wire.Label(3, 1)
	brokers := make(map[string]*Broker)
	for _, dc := range hops[:len(hops)-1] {
		b := New(dc, "unused:0")
		b.SetLogf(func(string, ...interface{}) {})
		b.applyAlloc(&wire.AllocUpdate{
			Epoch:   1,
			Tunnels: []wire.TunnelAlloc{{Label: label, Hops: hops, Rate: 8}}, // 1 MB/s
		})
		brokers[dc] = b
	}
	now := time.Unix(0, 0)
	cur := hops[0]
	for cur != hops[len(hops)-1] {
		next, ok := brokers[cur].Forward(label, 1000, now)
		if !ok {
			t.Fatalf("packet dropped at %s", cur)
		}
		cur = next
	}
	// Unknown label drops.
	if _, ok := brokers["DC1"].Forward(0xfff, 100, now); ok {
		t.Fatal("unknown label forwarded")
	}
	// Saturating the limiter drops excess traffic at the ingress.
	dropped := false
	for i := 0; i < 3000; i++ {
		if _, ok := brokers["DC1"].Forward(label, 1000, now); !ok {
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("rate limiter never engaged")
	}
}
