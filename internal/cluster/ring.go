// Package cluster generalizes the single-proxy architecture of the
// paper into a multi-node cache hierarchy: a consistent-hash ring
// assigns each object an owning node, and a per-node router turns that
// into the proxy's peer-aware fetch path —
// edge miss -> owning peer -> parent tier -> origin, each hop reusing
// the relay coalescer so a herd at N edges still costs one transfer
// over the constrained origin path.
//
// Placement is a pure function of (node count, virtual-node count,
// object ID): the simulator's hierarchy model and the live tier share
// the same Ring, so sim and live agree on ownership byte-for-byte.
package cluster

import (
	"errors"
	"fmt"
	"sort"
)

// ErrBadCluster reports an invalid cluster construction.
var ErrBadCluster = errors.New("cluster: invalid configuration")

// DefaultVirtualNodes is the ring granularity every cluster node and
// the simulated hierarchy use: enough points that ownership splits
// within a few percent of evenly at small node counts, few enough that
// building a ring stays trivially cheap.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over node indices [0, nodes). Each
// node contributes its virtual points, whose positions depend only on
// the node index, so adding or removing a node moves only the keys
// that land on the new (or vanished) node's points — roughly 1/N of
// them — and never reshuffles keys between surviving nodes.
//
// A Ring is immutable after construction and safe for concurrent use.
type Ring struct {
	points []ringPoint // sorted by hash, ties broken by node index
}

type ringPoint struct {
	hash uint64
	node int32
}

// mix64 is the splitmix64 finalizer: a full-avalanche 64-bit mixer, so
// dense node indices and object IDs spread uniformly around the ring.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// pointHash positions virtual point v of node n. It must not depend on
// the ring's node count: that independence is the consistent-hashing
// property (node churn only moves keys touching the changed node).
func pointHash(n, v int) uint64 {
	return mix64(uint64(n)<<32 | uint64(v)&0xFFFFFFFF)
}

// keyHash positions object id on the ring.
func keyHash(id int) uint64 {
	return mix64(uint64(id) * 0x9E3779B97F4A7C15)
}

// NewRing builds a ring over the given number of nodes with virtual
// points per node (0 means DefaultVirtualNodes).
func NewRing(nodes, virtual int) (*Ring, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("%w: ring over %d nodes", ErrBadCluster, nodes)
	}
	if virtual == 0 {
		virtual = DefaultVirtualNodes
	}
	if virtual < 0 {
		return nil, fmt.Errorf("%w: %d virtual nodes", ErrBadCluster, virtual)
	}
	r := &Ring{points: make([]ringPoint, 0, nodes*virtual)}
	for n := 0; n < nodes; n++ {
		for v := 0; v < virtual; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(n, v), node: int32(n)})
		}
	}
	// The node-index tiebreak makes ownership deterministic even in the
	// (astronomically unlikely) event of a point-hash collision.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r, nil
}

// Owner returns the node index owning object id: the node of the first
// ring point at or clockwise of the object's hash.
func (r *Ring) Owner(id int) int {
	h := keyHash(id)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point
	}
	return int(r.points[i].node)
}
