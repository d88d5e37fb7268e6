// Package shard scales the DSSP deployment out: a router fronts N
// dsspnode processes and splits the key space by template affinity, so
// every query template's cache entries live on exactly one node and hit
// rates are preserved as nodes are added. The same static analysis that
// prunes invalidation inside one cache (invalidate.Router) prunes the
// cross-node invalidation fan-out here: a completed update is pushed only
// to the nodes owning a query template the analysis could not prove
// A = 0 for — the scalability/security analysis becomes a network-level
// optimization.
//
// The router is untrusted infrastructure, exactly like a node: it holds
// no keys and steers only by what sealed messages reveal. Blind
// statements reveal no template, so blind queries are spread by their
// sealed lookup key and blind (or forged) updates fall back to a
// broadcast — conservative, like every other blind pathway in the
// system.
//
// Ring membership is live: the Planner stages a rebalance to a new
// member set, the router streams the moved template buckets' sealed
// entries to their new owner, and then the epoch flips atomically.
// Because a node's virtual points are keyed by its node ID alone, two
// rings built for the same member set agree exactly, and a join or
// leave moves only the keys adjacent to the changed node's points.
package shard

import (
	"fmt"
	"sort"
)

// ringReplicas is the number of virtual points each node contributes to
// the ring. More points smooth the key-space split; 64 keeps the spread
// within a few percent for small fleets while the ring stays tiny.
const ringReplicas = 64

// Ring is a consistent-hash ring over an explicit member set. It is
// deterministic in the member set alone, so every process that builds a
// Ring for the same members — router, simulator, tests — agrees on
// ownership without coordination. Removing or adding a node moves only
// the keys adjacent to its points, the property that keeps a resize from
// cold-starting every cache.
type Ring struct {
	members []int    // sorted live node IDs
	hashes  []uint64 // sorted virtual points
	owners  []int    // owners[i] is the node owning hashes[i]
}

// NewRing builds the ring for an n-node fleet with members 0..n-1.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic(fmt.Sprintf("shard: ring needs at least one node, got %d", n))
	}
	members := make([]int, n)
	for i := range members {
		members[i] = i
	}
	return NewRingMembers(members)
}

// NewRingMembers builds the ring for an explicit member set. Node IDs
// are stable across membership changes: node 3's virtual points are the
// same whether the fleet is {0,1,2,3} or {3,7}, which is what makes a
// join move keys only onto the new node.
func NewRingMembers(members []int) *Ring {
	if len(members) == 0 {
		panic("shard: ring needs at least one member")
	}
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	for i, m := range ms {
		if m < 0 {
			panic(fmt.Sprintf("shard: negative node ID %d", m))
		}
		if i > 0 && ms[i-1] == m {
			panic(fmt.Sprintf("shard: duplicate node ID %d", m))
		}
	}
	r := &Ring{members: ms}
	type point struct {
		hash uint64
		node int
	}
	points := make([]point, 0, len(ms)*ringReplicas)
	for _, node := range ms {
		for rep := 0; rep < ringReplicas; rep++ {
			points = append(points, point{hash64(fmt.Sprintf("node-%d-rep-%d", node, rep)), node})
		}
	}
	sort.Slice(points, func(i, j int) bool {
		if points[i].hash != points[j].hash {
			return points[i].hash < points[j].hash
		}
		return points[i].node < points[j].node
	})
	r.hashes = make([]uint64, len(points))
	r.owners = make([]int, len(points))
	for i, p := range points {
		r.hashes[i] = p.hash
		r.owners[i] = p.node
	}
	return r
}

// Nodes returns the member count.
func (r *Ring) Nodes() int { return len(r.members) }

// Members returns the sorted live node IDs.
func (r *Ring) Members() []int { return append([]int(nil), r.members...) }

// Contains reports whether node is a member of the ring.
func (r *Ring) Contains(node int) bool {
	i := sort.SearchInts(r.members, node)
	return i < len(r.members) && r.members[i] == node
}

// ownerOf maps the key prefix + string(key) to its owning node, without
// building the key: the first virtual point at or after the key's hash,
// wrapping around.
func ownerOf[K string | []byte](r *Ring, prefix string, key K) int {
	return r.owner(mix(fnv(fnv(fnvOffset, prefix), key)))
}

func (r *Ring) owner(h uint64) int {
	i := sort.Search(len(r.hashes), func(i int) bool { return r.hashes[i] >= h })
	if i == len(r.hashes) {
		i = 0
	}
	return r.owners[i]
}

// hash64 hashes a key onto the ring. Raw FNV-1a disperses short, similar
// strings ("node-0-rep-1", template IDs) poorly — their hashes cluster in
// a narrow band, which collapses the ring onto one node — so the FNV
// value is passed through a 64-bit avalanche finalizer (mix) to spread it
// over the full space. The FNV loop is inlined (offset basis and prime
// from hash/fnv) so routing a key never touches the allocator; FNV runs
// byte by byte, so a key hashed in parts hashes as their concatenation.
func hash64(s string) uint64 { return mix(fnv(fnvOffset, s)) }

const fnvOffset = uint64(14695981039346656037)

func fnv[K string | []byte](x uint64, s K) uint64 {
	for i := 0; i < len(s); i++ {
		x ^= uint64(s[i])
		x *= 1099511628211
	}
	return x
}

func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
