package scenario

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sync"

	"bate/internal/metrics"
	"bate/internal/routing"
	"bate/internal/topo"
)

// Scenario-class computation is the single most repeated piece of work
// in the system: every scheduling round, every admission check and
// every availability audit recomputes the tunnel-state classes of each
// demand, yet between rounds the inputs — topology, failure
// probabilities, tunnel sets, pruning depth — almost never change.
// ClassCache memoizes the class computation keyed by a fingerprint of
// exactly those inputs, so repeated rounds hit a lock-guarded map
// lookup instead of the exponential subset enumeration. Production
// code reaches it through alloc.Input.Classes, which supplies the
// network and risk groups from the Input itself.
//
// Cached class slices are shared between callers and MUST be treated
// as read-only; every consumer in this repo only iterates them.

var (
	cacheHits   = metrics.NewCounter("scenario.class_cache.hits")
	cacheMisses = metrics.NewCounter("scenario.class_cache.misses")
	cacheEvicts = metrics.NewCounter("scenario.class_cache.evictions")
)

// classKey fingerprints one class computation. The 128-bit
// FNV digests make accidental collisions between distinct topologies
// or tunnel sets vanishingly unlikely.
type classKey struct {
	topo    [16]byte // links + fail probs + risk groups
	tunnels [16]byte // tunnel link lists, in order
	maxFail int
}

func buildKey(net *topo.Network, groups []RiskGroup, tunnels []routing.Tunnel, maxFail int) classKey {
	var buf [8]byte
	// The topology digest is the Network's memoized fingerprint (node
	// count, link endpoints, failure probabilities) mixed with the risk
	// groups. Hashing the whole link list per lookup used to dominate
	// lookup cost on large networks — O(E) per call even on a hit — and
	// worse, partitioned scheduling issues one lookup per demand per
	// region subproblem, all over the same *Network. The memoized
	// fingerprint makes every subproblem hit the same entries for the
	// cost of hashing only the tunnel lists.
	th := fnv.New128a()
	fp := net.Fingerprint()
	th.Write(fp[:])
	for _, g := range groups {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(g.Prob))
		th.Write(buf[:])
		for _, e := range g.Links {
			binary.LittleEndian.PutUint64(buf[:], uint64(e))
			th.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], ^uint64(0)) // group separator
		th.Write(buf[:])
	}

	uh := fnv.New128a()
	for _, t := range tunnels {
		for _, e := range t.Links {
			binary.LittleEndian.PutUint64(buf[:], uint64(e))
			uh.Write(buf[:])
		}
		binary.LittleEndian.PutUint64(buf[:], ^uint64(0)) // tunnel separator
		uh.Write(buf[:])
	}

	var k classKey
	copy(k.topo[:], th.Sum(nil))
	copy(k.tunnels[:], uh.Sum(nil))
	k.maxFail = maxFail
	return k
}

// ClassCache memoizes scenario-class computations. The zero value is
// not usable; create with NewClassCache.
type ClassCache struct {
	mu      sync.RWMutex
	entries map[classKey][]Class
	max     int
}

// DefaultCacheEntries bounds the default cache; each entry is a small
// class slice, so thousands of entries cost a few MB at most.
const DefaultCacheEntries = 4096

// NewClassCache creates a cache holding at most max entries
// (max <= 0 uses DefaultCacheEntries). When full, arbitrary entries
// are evicted to make room; the cache is an accelerator, not a store.
func NewClassCache(max int) *ClassCache {
	if max <= 0 {
		max = DefaultCacheEntries
	}
	return &ClassCache{entries: make(map[classKey][]Class), max: max}
}

// DefaultClassCache is the process-wide cache behind alloc.Input.Classes.
var DefaultClassCache = NewClassCache(0)

// ClassesFor returns the tunnel-state classes for the inputs,
// memoized. The bool reports whether the result came from the cache.
// The returned slice is shared: callers must not modify it.
func (c *ClassCache) ClassesFor(net *topo.Network, groups []RiskGroup, tunnels []routing.Tunnel, maxFail int) ([]Class, bool, error) {
	key := buildKey(net, groups, tunnels, maxFail)
	c.mu.RLock()
	classes, ok := c.entries[key]
	c.mu.RUnlock()
	if ok {
		cacheHits.Inc()
		return classes, true, nil
	}
	cacheMisses.Inc()
	classes, err := classesFor(net, groups, tunnels, maxFail)
	if err != nil {
		return nil, false, err // errors are cheap to rediscover; don't cache
	}
	c.mu.Lock()
	for len(c.entries) >= c.max {
		for k := range c.entries { // arbitrary eviction
			delete(c.entries, k)
			cacheEvicts.Inc()
			break
		}
	}
	c.entries[key] = classes
	c.mu.Unlock()
	return classes, false, nil
}

// Len returns the number of cached entries.
func (c *ClassCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Reset drops every cached entry (tests and topology reloads).
func (c *ClassCache) Reset() {
	c.mu.Lock()
	c.entries = make(map[classKey][]Class)
	c.mu.Unlock()
}

// CacheStats reports the process-wide class-cache counters.
func CacheStats() (hits, misses, evictions int64) {
	return cacheHits.Load(), cacheMisses.Load(), cacheEvicts.Load()
}
