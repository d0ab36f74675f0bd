package serve

import (
	"sync"

	"setupsched"
	"setupsched/obs"
	"setupsched/sched"
)

// solverEntry is one prepared setupsched.Solver, keyed by the fingerprint
// of the canonical instance it was built for.  As with the result cache,
// the canonical instance is kept so a fingerprint collision is detected
// by exact comparison instead of silently solving the wrong instance.
type solverEntry struct {
	canon  *sched.Instance
	solver *setupsched.Solver
}

// solverCache is an LRU of prepared Solvers.  Every request for a
// permutation-equivalent instance reuses the same Solver, so the O(n)
// preparation pass runs once per distinct instance instead of once per
// request — the serving layer's answer to the Solver API's "prepare
// once, solve many" contract.  The mutex guards the LRU; preparation
// runs outside it.
type solverCache struct {
	mu      sync.Mutex
	entries *lru[*solverEntry]

	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

func newSolverCache(capacity int, hits, misses, evictions *obs.Counter) *solverCache {
	if capacity <= 0 {
		return nil
	}
	return &solverCache{
		entries: newLRU[*solverEntry](capacity),
		hits:    hits, misses: misses, evictions: evictions,
	}
}

// getOrCreate returns the cached Solver for the canonical instance,
// building and inserting one on a miss (or on a fingerprint collision,
// in which case the colliding entry is left alone and the fresh Solver
// is not cached).
func (c *solverCache) getOrCreate(fp string, canon *sched.Instance) (*setupsched.Solver, error) {
	c.mu.Lock()
	if e, ok := c.entries.get(fp); ok {
		if e.canon.Equal(canon) {
			c.entries.touch(fp)
			c.mu.Unlock()
			c.hits.Inc()
			return e.solver, nil
		}
		c.mu.Unlock()
		c.misses.Inc()
		return setupsched.NewSolver(canon)
	}
	c.mu.Unlock()
	c.misses.Inc()

	// Prepare outside the lock: preparation is O(n) and must not
	// serialize unrelated requests.
	solver, err := setupsched.NewSolver(canon)
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries.get(fp); !ok {
		c.evictions.Add(uint64(c.entries.put(fp, &solverEntry{canon: canon, solver: solver})))
	}
	return solver, nil
}

// size returns current occupancy for the size gauge.
func (c *solverCache) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries.len()
}
