package serve

// lru is the recency store under the result cache and the session
// registry: a key index over a recency ring that evicts the least
// recently used entries past its capacity.  It carries no lock and
// no policy of its own; each owner serializes access with its own mutex
// and keeps its collision checks, TTL sweep and counters on top.
type lru[V any] struct {
	capacity int
	byKey    map[string]*lruEntry[V]
	// root is the ring's sentinel: root.next is the most recently used
	// entry, root.prev the least.
	root lruEntry[V]
}

type lruEntry[V any] struct {
	key        string
	val        V
	prev, next *lruEntry[V]
}

func newLRU[V any](capacity int) *lru[V] {
	c := &lru[V]{capacity: capacity, byKey: make(map[string]*lruEntry[V], capacity)}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

func (c *lru[V]) len() int { return len(c.byKey) }

// get returns the value for key without touching recency: owners decide
// whether a lookup counts as a use (a fingerprint collision must not
// promote the colliding entry).
func (c *lru[V]) get(key string) (V, bool) {
	if e, ok := c.byKey[key]; ok {
		return e.val, true
	}
	var zero V
	return zero, false
}

// touch marks key most recently used; unknown keys are a no-op.
func (c *lru[V]) touch(key string) {
	if e, ok := c.byKey[key]; ok {
		c.unlink(e)
		c.pushFront(e)
	}
}

// put inserts or replaces the value for key, marks it most recently
// used, and evicts least recently used entries while over capacity,
// reporting how many it evicted.
func (c *lru[V]) put(key string, v V) (evicted int) {
	e, ok := c.byKey[key]
	if ok {
		e.val = v
		c.unlink(e)
	} else {
		e = &lruEntry[V]{key: key, val: v}
		c.byKey[key] = e
	}
	c.pushFront(e)
	for len(c.byKey) > c.capacity {
		c.remove(c.root.prev.key)
		evicted++
	}
	return evicted
}

// remove drops the entry for key, reporting whether it existed.
func (c *lru[V]) remove(key string) bool {
	e, ok := c.byKey[key]
	if ok {
		c.unlink(e)
		delete(c.byKey, key)
	}
	return ok
}

// oldest returns the least recently used value without touching it.
func (c *lru[V]) oldest() (V, bool) {
	if e := c.root.prev; e != &c.root {
		return e.val, true
	}
	var zero V
	return zero, false
}

// values returns every value from most to least recently used.
func (c *lru[V]) values() []V {
	out := make([]V, 0, len(c.byKey))
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, e.val)
	}
	return out
}

func (c *lru[V]) unlink(e *lruEntry[V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *lru[V]) pushFront(e *lruEntry[V]) {
	e.prev, e.next = &c.root, c.root.next
	e.next.prev = e
	c.root.next = e
}
