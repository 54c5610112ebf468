package graph

import (
	"testing"
	"testing/quick"
)

// partitionHosts builds the randomized host suite for one seed: a connected
// random graph, a cycle, a grid, and a sparse disconnected forest-ish host
// (Random with p=0 is a tree; we take two disjoint pieces via a relabel-free
// union is overkill — a path with an isolated tail suffices).
func partitionHosts(seed int64) []*Graph {
	n := 8 + int((seed%23+23)%23)
	return []*Graph{
		Random(n, 0.2, seed),
		Cycle(3 + n),
		Grid(3, 2+n/3),
		Path(n), // bridges make boundaries thin
	}
}

func TestPartitionCoversNodes(t *testing.T) {
	property := func(seed int64) bool {
		for _, g := range partitionHosts(seed) {
			for _, strat := range []PartitionStrategy{PartitionBFSBlocked, PartitionLevelContiguous} {
				for _, p := range []int{1, 2, 3, 5, 100} {
					pt := NewPartition(g, p, strat)
					seen := make([]int, g.N())
					for s := 0; s < pt.Shards(); s++ {
						if len(pt.Owned(s)) == 0 {
							t.Logf("%v p=%d: empty shard %d", strat, p, s)
							return false
						}
						for _, v := range pt.Owned(s) {
							seen[v]++
							if pt.ShardOf(int(v)) != s {
								t.Logf("%v p=%d: ShardOf(%d) != %d", strat, p, v, s)
								return false
							}
						}
					}
					for v, c := range seen {
						if c != 1 {
							t.Logf("%v p=%d: node %d owned %d times", strat, p, v, c)
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPartitionHaloFrontierBruteForce pins Halo(s, t)'s node column
// against the definition: for shard s, the nodes within distance t of some
// owned endpoint of a cross-shard edge, computed here by one full BFS per
// boundary node.
func TestPartitionHaloFrontierBruteForce(t *testing.T) {
	property := func(seed int64) bool {
		tr := NewTraversal()
		for _, g := range partitionHosts(seed) {
			for _, strat := range []PartitionStrategy{PartitionBFSBlocked, PartitionLevelContiguous} {
				pt := NewPartition(g, 3, strat)
				for _, radius := range []int{0, 1, 2, 4} {
					for s := 0; s < pt.Shards(); s++ {
						want := map[int32]bool{}
						for _, v := range pt.Owned(s) {
							cross := false
							for _, u := range g.Neighbors(int(v)) {
								if pt.ShardOf(int(u)) != s {
									cross = true
									break
								}
							}
							if !cross {
								continue
							}
							dist := tr.BFSFrom(g, int(v))
							for u, d := range dist {
								if d >= 0 && int(d) <= radius {
									want[int32(u)] = true
								}
							}
						}
						got, _ := pt.Halo(s, radius)
						if len(got) != len(want) {
							t.Logf("%v radius=%d shard=%d: |halo|=%d want %d", strat, radius, s, len(got), len(want))
							return false
						}
						for i, v := range got {
							if !want[v] {
								t.Logf("%v radius=%d shard=%d: unexpected halo node %d", strat, radius, s, v)
								return false
							}
							if i > 0 && got[i-1] >= v {
								t.Log("halo not strictly ascending")
								return false
							}
						}
						// Depth column must match true BFS distance to the boundary.
						nodes, depth := pt.Halo(s, radius)
						for i, v := range nodes {
							best := int32(-1)
							for _, b := range pt.Boundary(s) {
								dist := tr.BFSFrom(g, int(b))
								if d := dist[v]; d >= 0 && (best < 0 || d < best) {
									best = d
								}
							}
							if depth[i] != best {
								t.Logf("shard=%d node=%d: depth %d, want %d", s, v, depth[i], best)
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 6}); err != nil {
		t.Error(err)
	}
}
