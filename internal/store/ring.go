package store

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// DefaultVnodes is how many points each node contributes to the ring.
// 128 virtual nodes keep the per-node load imbalance within a few percent
// for small fleets while the ring stays tiny (N*128 uint64s).
const DefaultVnodes = 128

// Ring is a consistent-hash ring: keys map to nodes such that adding or
// removing one node moves only ~1/N of the keyspace. Placement is a pure
// function of (node names, vnodes, key), so every client of a fleet —
// across processes and machines — computes the same owner without
// coordination.
//
// A Ring is immutable after New and safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash
	nodes  []string    // construction order, deduplicated
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// NewRing builds a ring over the given node names with vnodes virtual
// points per node (<= 0 means DefaultVnodes). Node names must be unique
// and non-empty.
func NewRing(nodes []string, vnodes int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("ring: no nodes")
	}
	if vnodes <= 0 {
		vnodes = DefaultVnodes
	}
	seen := make(map[string]bool, len(nodes))
	r := &Ring{
		points: make([]ringPoint, 0, len(nodes)*vnodes),
		nodes:  make([]string, 0, len(nodes)),
	}
	for _, n := range nodes {
		if n == "" {
			return nil, fmt.Errorf("ring: empty node name")
		}
		if seen[n] {
			return nil, fmt.Errorf("ring: duplicate node %q", n)
		}
		seen[n] = true
		idx := len(r.nodes)
		r.nodes = append(r.nodes, n)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash: hash64(fmt.Sprintf("%s#%d", n, v)),
				node: idx,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit hash collision between vnode labels is vanishingly
		// rare; break it by node name so placement stays deterministic
		// regardless of construction order.
		return r.nodes[r.points[i].node] < r.nodes[r.points[j].node]
	})
	return r, nil
}

// Owner returns the node responsible for key: the first ring point at or
// after the key's hash, wrapping around.
func (r *Ring) Owner(key string) string {
	return r.nodes[r.points[r.search(key)].node]
}

// Replicas returns n distinct nodes for key, starting with the owner and
// walking the ring to successive distinct nodes. n is clamped to the node
// count. The first element is always Owner(key).
func (r *Ring) Replicas(key string, n int) []string {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		n = 1
	}
	out := make([]string, 0, n)
	seen := make(map[int]bool, n)
	i := r.search(key)
	for len(out) < n {
		p := r.points[i]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, r.nodes[p.node])
		}
		i++
		if i == len(r.points) {
			i = 0
		}
	}
	return out
}

// search returns the index of the first point with hash >= hash64(key),
// wrapping to 0 past the last point.
func (r *Ring) search(key string) int {
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// hash64 is FNV-1a, the ring's placement hash. The result keys are
// already uniform SHA-256 hex, but the ring also hashes arbitrary node
// labels, so it hashes everything the same way.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s)) //icrvet:ignore droppederr hash.Hash.Write never returns an error
	return h.Sum64()
}
