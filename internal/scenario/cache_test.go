package scenario

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"bate/internal/parallel"
	"bate/internal/routing"
	"bate/internal/topo"
)

func cacheTestNet(t *testing.T) (*topo.Network, []routing.Tunnel) {
	t.Helper()
	net := topo.Testbed()
	ts := routing.Compute(net, routing.KShortest, 3)
	pairs := net.Pairs()
	var tunnels []routing.Tunnel
	tunnels = append(tunnels, ts.For(pairs[0][0], pairs[0][1])...)
	if len(tunnels) == 0 {
		t.Fatal("no tunnels")
	}
	return net, tunnels
}

func TestClassCacheHitMissCounts(t *testing.T) {
	net, tunnels := cacheTestNet(t)
	c := NewClassCache(16)

	first, hit, err := c.ClassesFor(net, nil, tunnels, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("first lookup reported a hit")
	}
	if c.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", c.Len())
	}
	for i := 0; i < 5; i++ {
		again, hit, err := c.ClassesFor(net, nil, tunnels, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !hit {
			t.Fatalf("lookup %d missed", i)
		}
		if len(again) != len(first) {
			t.Fatalf("hit returned %d classes, want %d", len(again), len(first))
		}
		for j := range again {
			if again[j] != first[j] {
				t.Fatalf("class %d changed across hits", j)
			}
		}
	}

	// A different maxFail is a different key.
	if _, hit, err := c.ClassesFor(net, nil, tunnels, 1); err != nil || hit {
		t.Fatalf("maxFail=1 lookup: hit=%v err=%v", hit, err)
	}
	// A different tunnel subset is a different key.
	if _, hit, err := c.ClassesFor(net, nil, tunnels[:1], 2); err != nil || hit {
		t.Fatalf("subset lookup: hit=%v err=%v", hit, err)
	}
	if c.Len() != 3 {
		t.Fatalf("cache has %d entries, want 3", c.Len())
	}
}

func TestClassCacheDistinguishesFailProbs(t *testing.T) {
	net, tunnels := cacheTestNet(t)
	c := NewClassCache(16)
	if _, hit, err := c.ClassesFor(net, nil, tunnels, 2); err != nil || hit {
		t.Fatalf("first: hit=%v err=%v", hit, err)
	}
	// Same structure, different failure probabilities: must be a miss
	// with different class probabilities.
	probs := make([]float64, net.NumLinks())
	for i := range probs {
		probs[i] = 0.01 + 0.001*float64(i)
	}
	net2, err := net.WithFailProbs(probs)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := routing.Compute(net2, routing.KShortest, 3)
	pairs := net2.Pairs()
	tunnels2 := ts2.For(pairs[0][0], pairs[0][1])
	cl2, hit, err := c.ClassesFor(net2, nil, tunnels2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("different fail probs hit the cache")
	}
	want, err := classesFor(net2, nil, tunnels2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cl2) != len(want) {
		t.Fatalf("got %d classes, want %d", len(cl2), len(want))
	}
	for i := range want {
		if cl2[i] != want[i] {
			t.Fatalf("class %d mismatch", i)
		}
	}
}

func TestClassCacheGroupsKeyed(t *testing.T) {
	net, tunnels := cacheTestNet(t)
	c := NewClassCache(16)
	groups := []RiskGroup{{Name: "conduit", Links: []topo.LinkID{0, 1}, Prob: 0.001}}
	a, hit, err := c.ClassesFor(net, groups, tunnels, 2)
	if err != nil || hit {
		t.Fatalf("grouped first: hit=%v err=%v", hit, err)
	}
	b, hit, err := c.ClassesFor(net, nil, tunnels, 2)
	if err != nil || hit {
		t.Fatalf("ungrouped after grouped: hit=%v err=%v", hit, err)
	}
	// Sanity: grouped and ungrouped results differ (group adds risk).
	sameAll := len(a) == len(b)
	if sameAll {
		for i := range a {
			if a[i] != b[i] {
				sameAll = false
				break
			}
		}
	}
	if sameAll {
		t.Fatal("grouped and ungrouped classes identical; key ignored groups?")
	}
	if _, hit, _ := c.ClassesFor(net, groups, tunnels, 2); !hit {
		t.Fatal("grouped lookup missed the second time")
	}
}

func TestClassCacheEviction(t *testing.T) {
	net, tunnels := cacheTestNet(t)
	c := NewClassCache(2)
	for mf := 1; mf <= 4; mf++ {
		if _, _, err := c.ClassesFor(net, nil, tunnels, mf); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() > 2 {
		t.Fatalf("cache grew to %d entries past cap 2", c.Len())
	}
	c.Reset()
	if c.Len() != 0 {
		t.Fatalf("reset left %d entries", c.Len())
	}
}

// TestClassCacheConcurrent hammers one cache from many goroutines;
// run with -race.
func TestClassCacheConcurrent(t *testing.T) {
	net, tunnels := cacheTestNet(t)
	want, err := classesFor(net, nil, tunnels, 2)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClassCache(8)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				mf := 1 + (g+i)%3
				got, _, err := c.ClassesFor(net, nil, tunnels, mf)
				if err != nil {
					errs <- err
					return
				}
				if mf == 2 {
					for j := range want {
						if got[j] != want[j] {
							t.Errorf("goroutine %d: class %d diverged", g, j)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestEnumerateParallelMatchesSerial verifies the fan-out enumeration
// is byte-identical to the serial recursion on a topology large enough
// to cross the parallel threshold.
func TestEnumerateParallelMatchesSerial(t *testing.T) {
	// Build a ring big enough that C(n,2)+n+1 > parallelEnumerateThreshold.
	rng := rand.New(rand.NewSource(11))
	b := topo.NewBuilder("bigring")
	n := 96
	names := make([]string, n)
	for i := range names {
		names[i] = string(rune('A'+i%26)) + string(rune('a'+i/26))
	}
	for i := 0; i < n; i++ {
		b.Bidi(names[i], names[(i+1)%n], 1000, 1e-4*(1+rng.Float64()))
	}
	net := b.MustBuild()
	if c := Count(net.NumLinks(), 2); c <= parallelEnumerateThreshold {
		t.Fatalf("test topology too small: %d scenarios", c)
	}

	got, err := Enumerate(net, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertSameSet(t, got, enumerateSerialReference(net, 2))
	if math.Abs(got.Residual) > 1 {
		t.Fatalf("implausible residual %v", got.Residual)
	}
	// Below the fan-out threshold the serial path must match too: with
	// no groups the unit walk is exactly the link walk.
	small := topo.Testbed()
	for y := 0; y <= 3; y++ {
		got, err := Enumerate(small, nil, y)
		if err != nil {
			t.Fatal(err)
		}
		assertSameSet(t, got, enumerateSerialReference(small, y))
	}

	// With groups, the fan-out (one task per first unit, groups
	// included) merges to the same bytes as a one-worker walk.
	groups := []RiskGroup{
		{Name: "a", Links: []topo.LinkID{0, 1, 7}, Prob: 2e-3},
		{Name: "b", Links: []topo.LinkID{7, 40}, Prob: 5e-4},
	}
	parallel.SetDefaultSize(1)
	serial, err := Enumerate(net, groups, 2)
	parallel.SetDefaultSize(4)
	fanned, err2 := Enumerate(net, groups, 2)
	parallel.SetDefaultSize(0)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	assertSameSet(t, fanned, serial)
}

// assertSameSet fails unless got and want hold the same scenarios, in
// the same order, with bit-identical probabilities and residual.
func assertSameSet(t *testing.T, got, want *Set) {
	t.Helper()
	if len(got.Scenarios) != len(want.Scenarios) {
		t.Fatalf("got %d scenarios, want %d", len(got.Scenarios), len(want.Scenarios))
	}
	for i := range want.Scenarios {
		g, w := got.Scenarios[i], want.Scenarios[i]
		if g.Prob != w.Prob || len(g.Down) != len(w.Down) {
			t.Fatalf("scenario %d mismatch: %+v vs %+v", i, g, w)
		}
		for j := range w.Down {
			if g.Down[j] != w.Down[j] {
				t.Fatalf("scenario %d down set mismatch", i)
			}
		}
	}
	if got.Residual != want.Residual {
		t.Fatalf("residual %v != %v", got.Residual, want.Residual)
	}
}

// enumerateSerialReference is the pre-parallel implementation, kept as
// the test oracle.
func enumerateSerialReference(net *topo.Network, maxFail int) *Set {
	links := net.Links()
	allUp := 1.0
	odds := make([]float64, len(links))
	for i, l := range links {
		allUp *= 1 - l.FailProb
		odds[i] = l.FailProb / (1 - l.FailProb)
	}
	set := &Set{Net: net, MaxFail: maxFail}
	var down []topo.LinkID
	total := 0.0
	var rec func(start int, prob float64)
	rec = func(start int, prob float64) {
		set.Scenarios = append(set.Scenarios, Scenario{Down: append([]topo.LinkID(nil), down...), Prob: prob})
		total += prob
		if len(down) == maxFail {
			return
		}
		for i := start; i < len(links); i++ {
			down = append(down, topo.LinkID(i))
			rec(i+1, prob*odds[i])
			down = down[:len(down)-1]
		}
	}
	rec(0, allUp)
	set.Residual = math.Max(0, 1-total)
	return set
}
