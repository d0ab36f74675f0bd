package serve

import (
	"sync"

	"setupsched"
	"setupsched/obs"
	"setupsched/sched"
)

// cacheEntry is one cached solve outcome.  The schedule inside Result is
// stored in *canonical* index space (see sched.Canonical), so a single
// entry serves every instance that is permutation-equivalent to the one
// that populated it; the canonical instance is kept to defend against
// fingerprint collisions by exact comparison on every hit.
type cacheEntry struct {
	key    string
	canon  *sched.Instance
	result *setupsched.Result // schedule in canonical index space
}

// resultCache is the result LRU keyed by
// (fingerprint, variant, algorithm, epsilon).  On top of the LRU's
// recency and capacity it owns the collision checks and the hit, miss
// and eviction counters of /metrics.
type resultCache struct {
	mu      sync.Mutex
	entries *lru[*cacheEntry]

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

func newResultCache(capacity int, hits, misses, evictions *obs.Counter) *resultCache {
	if capacity <= 0 {
		return nil
	}
	return &resultCache{
		entries: newLRU[*cacheEntry](capacity),
		hits:    hits, misses: misses, evictions: evictions,
	}
}

// get returns the entry for key whose stored canonical instance
// satisfies matches, promoting it to most recently used.  The predicate
// is the fingerprint-collision defense: callers pass an exact
// canonical-form comparison (sched.CanonicalView.MatchesCanonical, so no
// canonical copy is materialized on the hit path); a key match that
// fails it counts as a miss and is not promoted.
func (c *resultCache) get(key string, matches func(*sched.Instance) bool) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries.get(key)
	if !ok || !matches(e.canon) {
		c.misses.Inc()
		return nil
	}
	c.entries.touch(key)
	c.hits.Inc()
	return e
}

// put inserts or replaces the entry for key, evicting the least recently
// used entry when over capacity.
func (c *resultCache) put(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictions.Add(uint64(c.entries.put(e.key, e)))
}

// remove drops the entry for key if present (used when a cached result
// fails re-verification).
func (c *resultCache) remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries.remove(key)
}

// size returns current occupancy for the size gauge.
func (c *resultCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.len()
}
