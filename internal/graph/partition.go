package graph

import (
	"fmt"
	"slices"
)

// This file is the graph half of the sharded message-passing runtime: a
// Partition splits a host CSR into p shards and answers the one question the
// halo-exchange protocol needs — which nodes sit within distance t of a
// shard boundary. Everything here is strategy + arithmetic over the existing
// flat arrays; no per-node maps. The component sweep that orders
// PartitionBFSBlocked and the boundary ball of Halo both run the
// Traversal's one layered search.

// PartitionStrategy selects how NewPartition assigns nodes to shards.
type PartitionStrategy int

const (
	// PartitionBFSBlocked assigns nodes to shards in blocks of BFS discovery
	// order (restarting at the smallest unvisited node per component). On
	// general and random hosts this keeps each shard a locally-connected blob,
	// which is what minimises the cross-shard boundary the halo exchange pays
	// for.
	PartitionBFSBlocked PartitionStrategy = iota
	// PartitionLevelContiguous assigns contiguous node-id ranges to shards.
	// The layered-tree and pyramid families number their nodes in level order
	// (tree.LayeredTree.LevelOffset(y) = 2^y - 1, tree.Pyramid's geometric
	// levelOffset), so contiguous id blocks are level-contiguous cuts: each
	// shard owns a band of whole levels plus at most two partial ones, and
	// cross-shard edges concentrate on the two cut frontiers.
	PartitionLevelContiguous
)

// String names the strategy for logs and test output.
func (s PartitionStrategy) String() string {
	switch s {
	case PartitionBFSBlocked:
		return "bfs-blocked"
	case PartitionLevelContiguous:
		return "level-contiguous"
	default:
		return fmt.Sprintf("PartitionStrategy(%d)", int(s))
	}
}

// Partition maps the nodes of a host graph onto p shards. It is immutable
// after construction; the accessors return internal slices that callers must
// not mutate. A Partition is safe for concurrent reads, but Halo uses
// internal scratch, so two Halo calls must not run concurrently.
type Partition struct {
	g     *Graph
	p     int
	shard []int32   // node -> owning shard
	owned [][]int32 // shard -> owned nodes, ascending
	tr    Traversal // scratch for the component sweep and the boundary ball
}

// NewPartition splits g into p shards under the given strategy. The shard
// count is clamped to [1, max(1, g.N())] so every shard is nonempty whenever
// the host has nodes; the shards always partition [0, g.N()) exactly.
func NewPartition(g *Graph, p int, strategy PartitionStrategy) *Partition {
	if g == nil {
		panic("graph: NewPartition on nil host")
	}
	n := g.N()
	if p < 1 {
		p = 1
	}
	if n > 0 && p > n {
		p = n
	}
	pt := &Partition{g: g, p: p, shard: make([]int32, n), owned: make([][]int32, p)}
	switch strategy {
	case PartitionLevelContiguous:
		pt.assignContiguous(n)
	case PartitionBFSBlocked:
		pt.assignBFSBlocked(n)
	default:
		panic(fmt.Sprintf("graph: unknown partition strategy %d", int(strategy)))
	}
	return pt
}

// assignContiguous gives shard s the id range [s*n/p, (s+1)*n/p).
func (pt *Partition) assignContiguous(n int) {
	for s := 0; s < pt.p; s++ {
		lo, hi := s*n/pt.p, (s+1)*n/pt.p
		block := make([]int32, 0, hi-lo)
		for v := lo; v < hi; v++ {
			pt.shard[v] = int32(s)
			block = append(block, int32(v))
		}
		pt.owned[s] = block
	}
}

// assignBFSBlocked cuts the discovery order of the component sweep (each
// component searched from its smallest member) into p balanced blocks, then
// sorts each shard's nodes ascending so Owned rows stay monotone in host-id
// order.
func (pt *Partition) assignBFSBlocked(n int) {
	pt.tr.ComponentIDs(pt.g)
	order := pt.tr.queue
	for s := 0; s < pt.p; s++ {
		lo, hi := s*n/pt.p, (s+1)*n/pt.p
		block := append([]int32(nil), order[lo:hi]...)
		slices.Sort(block)
		for _, v := range block {
			pt.shard[v] = int32(s)
		}
		pt.owned[s] = block
	}
}

// Shards returns the shard count p.
func (pt *Partition) Shards() int { return pt.p }

// ShardOf returns the shard owning node v.
func (pt *Partition) ShardOf(v int) int {
	pt.g.check(v)
	return int(pt.shard[v])
}

// Owned returns shard s's nodes in ascending host-id order. The slice is
// internal; callers must not mutate it.
func (pt *Partition) Owned(s int) []int32 { return pt.owned[s] }

// Boundary returns shard s's boundary: its owned endpoints of cross-shard
// edges, ascending. Allocates the result; Owned order makes it sorted.
func (pt *Partition) Boundary(s int) []int32 {
	var out []int32
	for _, v := range pt.owned[s] {
		for _, u := range pt.g.row(int(v)) {
			if pt.shard[u] != int32(s) {
				out = append(out, v)
				break
			}
		}
	}
	return out
}

// Halo returns shard s's depth-t boundary ball as parallel slices: every
// node within distance t of Boundary(s), ascending by host id, with depth[i]
// the BFS distance of nodes[i] from the boundary (0 for the boundary
// itself). The owned members (depth <= t-1 plus the boundary) are the
// shard's rim — the nodes whose radius-t views can leave the shard; the
// unowned members are exactly the ghosts the shard must import to complete
// those views: for any unowned u, dist(u, Owned(s)) = dist(u, Boundary(s)),
// since a shortest path into the shard enters through a boundary node.
// The ball is one multi-source search from the boundary, and each node's
// depth is the search layer it was discovered in. Both slices are freshly
// allocated.
func (pt *Partition) Halo(s, t int) (nodes, depth []int32) {
	if t < 0 {
		panic("graph: negative halo depth")
	}
	sources := pt.Boundary(s)
	if len(sources) == 0 {
		return nil, nil
	}
	tr := &pt.tr
	tr.next(pt.g.N())
	for _, v := range sources {
		tr.visit(v)
	}
	tr.search(pt.g, 0, t, -1)
	// Pack each node with its layer as node<<32 | depth, so one sort orders
	// both columns by node.
	keyed := make([]int64, 0, len(tr.queue))
	for d := range tr.layers {
		for _, v := range tr.layer(d) {
			keyed = append(keyed, int64(v)<<32|int64(d))
		}
	}
	slices.Sort(keyed)
	nodes = make([]int32, len(keyed))
	depth = make([]int32, len(keyed))
	for i, k := range keyed {
		nodes[i], depth[i] = int32(k>>32), int32(k)
	}
	return nodes, depth
}
