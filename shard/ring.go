// Package shard is the routing half of the serving stack's distributed
// tier: a deterministic consistent-hash Ring that assigns every routing
// key — instance fingerprints for solves, session ids for sessions — to
// exactly one shard process.
//
// The split follows the paper's economics: Deppert & Jansen's
// near-linear solvers (SPAA 2019) make one solve so cheap that a single
// process stops being compute-bound; the ceiling is its in-memory state
// (serve's result cache and incremental sessions).  Because the serving
// layer keys all of that state by the instance's canonical fingerprint
// (the batch-affinity structure of Mäcker et al., arXiv:1504.07066:
// permutation-equivalent workloads hit the same entry), routing a key
// to a fixed owner keeps every cache exactly as effective as it was on
// one box — shard-by-fingerprint is not just load-spreading, it is
// cache-affinity-preserving.
//
// Ring is a classic consistent-hash ring with virtual nodes.  It is a
// pure function of (replicas, shard set): every process that builds a
// ring from the same topology — the schedlb front tier, a load-test
// driver predicting owners, an operator's migration script — computes
// identical ownership, with no coordination channel.  Topology changes
// are deterministic rebalances: adding one shard to k moves roughly a
// 1/(k+1) fraction of keys (only onto the new shard), removing one moves
// only the removed shard's keys.  Rebalance enumerates exactly which
// keys move, which is what session draining/migration executes (see
// serve's drain endpoint and the README's "Scaling out" section).
package shard

import (
	"fmt"
	"sort"
	"strconv"
)

// DefaultReplicas is the virtual-node count per shard when a Ring is
// built with replicas <= 0.  Share variance across shards shrinks like
// 1/sqrt(replicas), so the default is deliberately high: at 1024 vnodes
// the max/min key share across 8 shards is ~1.08 (the ring test pins
// <= 1.15 both here and at the 128-vnode floor), while the ring stays
// tiny — 8 shards cost 8k points (~128 KiB) and one binary search per
// lookup.
const DefaultReplicas = 1024

// Ring is an immutable consistent-hash ring with virtual nodes.  It is a
// pure function of (replicas, shard id set): any process constructing a
// ring from the same topology computes identical key ownership — the
// property the stateless schedlb front tier, the load-test driver's
// misroute checks and migration tooling all rely on.  Mutating the
// topology means deriving a new ring (With / Without / NewRing) and
// migrating per Rebalance; existing Rings are never modified and are
// safe for concurrent use.
type Ring struct {
	replicas int
	shards   []string // sorted, unique
	points   []point  // sorted by hash, ties broken by shard index
}

// point is one virtual node: the hash position and the owning shard
// (index into shards).
type point struct {
	h     uint64
	shard int32
}

// NewRing builds a ring of the given shard ids with replicas virtual
// nodes per shard (DefaultReplicas when replicas <= 0).  Duplicate ids
// collapse; order does not matter.  An empty shard set is allowed — the
// ring then owns nothing and Owner returns "".
func NewRing(replicas int, shards ...string) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	uniq := make([]string, 0, len(shards))
	seen := make(map[string]bool, len(shards))
	for _, s := range shards {
		if !seen[s] {
			seen[s] = true
			uniq = append(uniq, s)
		}
	}
	sort.Strings(uniq)
	r := &Ring{replicas: replicas, shards: uniq}
	r.points = make([]point, 0, replicas*len(uniq))
	for si, id := range uniq {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, point{h: hashKey(id + "#" + strconv.Itoa(v)), shard: int32(si)})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		// A full 64-bit hash collision between vnodes is astronomically
		// unlikely; break the tie on shard index so ownership is still a
		// deterministic function of the topology if it ever happens.
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Replicas returns the virtual-node count per shard.
func (r *Ring) Replicas() int { return r.replicas }

// Shards returns the shard ids in sorted order.  The slice is shared;
// callers must not modify it.
func (r *Ring) Shards() []string { return r.shards }

// Owner returns the shard owning key: the shard of the first virtual
// node at or clockwise after hash(key), wrapping at the top of the hash
// space.  An empty ring returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.shards[r.points[i].shard]
}

// With derives a new ring with shard added (same replicas).
func (r *Ring) With(shard string) *Ring {
	return NewRing(r.replicas, append(append([]string(nil), r.shards...), shard)...)
}

// Without derives a new ring with shard removed (same replicas).
func (r *Ring) Without(shard string) *Ring {
	keep := make([]string, 0, len(r.shards))
	for _, s := range r.shards {
		if s != shard {
			keep = append(keep, s)
		}
	}
	return NewRing(r.replicas, keep...)
}

// Move is one key that changes owner across a topology change.
type Move struct {
	Key  string
	From string // owner under the old ring
	To   string // owner under the new ring
}

// Rebalance enumerates the keys whose owner differs between the old and
// the new ring, in input order — the deterministic migration plan for a
// topology change.  Keys owned by the same shard on both rings are
// omitted.  Adding one shard to k yields moves only *onto* the new shard
// (roughly a 1/(k+1) fraction of keys); removing one yields moves only
// *off* the removed shard.
func Rebalance(old, new *Ring, keys []string) []Move {
	var moves []Move
	for _, k := range keys {
		from, to := old.Owner(k), new.Owner(k)
		if from != to {
			moves = append(moves, Move{Key: k, From: from, To: to})
		}
	}
	return moves
}

// String describes the topology for logs.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d shards x %d vnodes)", len(r.shards), r.replicas)
}

// hashKey positions a key (or virtual node) on the ring: FNV-1a 64 over
// the bytes, finished with the SplitMix64 mixer.  FNV alone clusters on
// short structured inputs like "s3#17"; the finalizer's avalanche makes
// vnode positions statistically uniform, which is what the balance
// guarantee rests on.  The function is fixed forever — changing it would
// silently remap every deployment's keys.
func hashKey(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// SplitMix64 finalizer (Steele et al.), a full-avalanche bijection.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
