package serve

import (
	"fmt"
	"testing"

	"setupsched"
	"setupsched/obs"
	"setupsched/sched"
)

func entry(key string, m int64) *cacheEntry {
	in := &sched.Instance{M: m, Classes: []sched.Class{{Setup: 1, Jobs: []int64{1}}}}
	return &cacheEntry{key: key, canon: in, result: &setupsched.Result{}}
}

// matching adapts an expected canonical instance to the collision-check
// predicate get takes (the server passes CanonicalView.MatchesCanonical).
func matching(want *sched.Instance) func(*sched.Instance) bool {
	return want.Equal
}

// testResultCache builds a cache with fresh standalone counters, as New
// does with registry-backed ones.
func testResultCache(capacity int) *resultCache {
	return newResultCache(capacity, &obs.Counter{}, &obs.Counter{}, &obs.Counter{})
}

func TestCacheLRUEviction(t *testing.T) {
	c := testResultCache(3)
	for i := 0; i < 4; i++ {
		c.put(entry(fmt.Sprintf("k%d", i), int64(i+1)))
	}
	// k0 is the oldest and must have been evicted.
	if got := c.get("k0", matching(entry("k0", 1).canon)); got != nil {
		t.Fatal("expected k0 to be evicted")
	}
	size := c.size()
	hits, misses, evictions := c.hits.Load(), c.misses.Load(), c.evictions.Load()
	if size != 3 || evictions != 1 || hits != 0 || misses != 1 {
		t.Fatalf("snapshot = size %d hits %d misses %d evictions %d",
			size, hits, misses, evictions)
	}

	// Touching k1 promotes it; the next eviction must take k2 instead.
	if got := c.get("k1", matching(entry("k1", 2).canon)); got == nil {
		t.Fatal("expected k1 hit")
	}
	c.put(entry("k4", 5))
	if got := c.get("k1", matching(entry("k1", 2).canon)); got == nil {
		t.Fatal("k1 evicted despite recent use")
	}
	if got := c.get("k2", matching(entry("k2", 3).canon)); got != nil {
		t.Fatal("expected k2 to be evicted")
	}
}

func TestCacheCollisionDefense(t *testing.T) {
	c := testResultCache(2)
	c.put(entry("k", 1))
	// Same key, different canonical instance: must miss, never return the
	// other instance's result.
	if got := c.get("k", matching(entry("k", 2).canon)); got != nil {
		t.Fatal("cache returned an entry for a mismatched canonical instance")
	}
}

func TestCacheReplaceAndRemove(t *testing.T) {
	c := testResultCache(2)
	c.put(entry("k", 1))
	c.put(entry("k", 2)) // replace in place
	if size := c.size(); size != 1 {
		t.Fatalf("size after replace = %d, want 1", size)
	}
	if got := c.get("k", matching(entry("k", 2).canon)); got == nil {
		t.Fatal("expected replaced entry to match new canonical instance")
	}
	c.remove("k")
	c.remove("absent") // no-op
	if size := c.size(); size != 0 {
		t.Fatal("entry still present after remove")
	}
}

func TestCacheDisabled(t *testing.T) {
	if testResultCache(0) != nil || testResultCache(-1) != nil {
		t.Fatal("non-positive capacity must disable the cache")
	}
}

// TestLRURecencyMechanics exercises the LRU under all three caches:
// recency order, get without promotion, touch and put promotion,
// replacement, capacity eviction with its reported count, oldest and
// values.
func TestLRURecencyMechanics(t *testing.T) {
	c := newLRU[int](3)
	if _, ok := c.oldest(); ok {
		t.Fatal("empty LRU reports an oldest entry")
	}
	for i, k := range []string{"a", "b", "c"} {
		if n := c.put(k, i+1); n != 0 {
			t.Fatalf("put(%s) under capacity evicted %d", k, n)
		}
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3", c.len())
	}

	// get must not promote: a stays oldest.
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("get(a) = %v, %v", v, ok)
	}
	if v, _ := c.oldest(); v != 1 {
		t.Fatalf("after get, oldest = %d, want a's 1 (get must not promote)", v)
	}

	// touch promotes: a becomes newest, b oldest.
	c.touch("a")
	if v, _ := c.oldest(); v != 2 {
		t.Fatalf("after touch(a), oldest = %d, want b's 2", v)
	}

	// put replaces in place, promotes, and evicts nothing.
	if n := c.put("b", 20); n != 0 {
		t.Fatalf("replacing put evicted %d", n)
	}
	if v, _ := c.get("b"); v != 20 {
		t.Fatalf("put did not replace: %v", v)
	}
	if got := c.values(); len(got) != 3 || got[0] != 20 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("values = %v, want [20 1 3] (most recent first)", got)
	}

	// A fourth key evicts exactly the least recently used one, c.
	if n := c.put("d", 4); n != 1 {
		t.Fatalf("put past capacity evicted %d, want 1", n)
	}
	if _, ok := c.get("c"); ok || c.len() != 3 {
		t.Fatalf("eviction kept c or changed the size to %d", c.len())
	}

	if !c.remove("a") || c.remove("a") {
		t.Fatal("remove should report existence exactly once")
	}
	if c.len() != 2 {
		t.Fatalf("len after remove = %d, want 2", c.len())
	}
	c.touch("nope") // unknown keys are a no-op
	if got := c.values(); len(got) != 2 || got[0] != 4 || got[1] != 20 {
		t.Fatalf("values = %v, want [4 20]", got)
	}

	// Capacity 1: every put of a new key evicts the previous one.
	one := newLRU[string](1)
	one.put("x", "x")
	if n := one.put("y", "y"); n != 1 || one.len() != 1 {
		t.Fatalf("capacity-1 put evicted %d, len %d", n, one.len())
	}
	if v, _ := one.oldest(); v != "y" {
		t.Fatalf("capacity-1 LRU holds %q, want y", v)
	}
}
