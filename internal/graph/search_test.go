package graph

import (
	"math"
	"slices"
	"testing"
)

// decodeSearchInput decodes fuzz bytes into a host of 1–32 nodes, a
// nonempty list of centres (repeats allowed) and a radius in 0–4: byte 0
// sizes the host, byte 1 picks the radius, byte 2 the centre count (1–4),
// the next bytes the centres, and every later byte pair one edge
// (self-loops skipped, repeats merged).
func decodeSearchInput(data []byte) (g *Graph, centres []int, radius int) {
	if len(data) < 3 {
		return nil, nil, 0
	}
	n := 1 + int(data[0])%32
	radius = int(data[1]) % 5
	k := 1 + int(data[2])%4
	data = data[3:]
	if len(data) < k {
		return nil, nil, 0
	}
	for _, c := range data[:k] {
		centres = append(centres, int(c)%n)
	}
	b := NewBuilder(n)
	for rest := data[k:]; len(rest) >= 2; rest = rest[2:] {
		if u, v := int(rest[0])%n, int(rest[1])%n; u != v {
			b.AddEdge(u, v)
		}
	}
	return b.Build(), centres, radius
}

// FuzzSearchMatchesReference checks every output of the shared layered
// search against refBall and refBFSFrom, the reference searches of
// traversal_test.go, which share no code with it: Ball's content and
// order, BallAround's content and layering, Distance, ComponentIDs,
// Partition.Halo's nodes and depths under both strategies, and the
// Original column of ViewExtractor.At.
func FuzzSearchMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{7, 2, 1, 0, 3, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 0})
	f.Add([]byte{11, 4, 3, 0, 5, 9, 2, 0, 1, 1, 2, 2, 3, 5, 6, 6, 7, 7, 8, 9, 10})
	f.Add([]byte{31, 3, 2, 4, 4, 17, 0, 1, 0, 2, 1, 3, 2, 3, 20, 21, 21, 22, 22, 20})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, centres, radius := decodeSearchInput(data)
		if g == nil {
			return
		}
		n := g.N()
		dist := make([][]int, n)
		for v := range dist {
			dist[v] = refBFSFrom(g, v)
		}
		tr := NewTraversal()

		for _, c := range centres {
			if got, want := tr.Ball(g, c, radius), refBall(g, c, radius); !slices.Equal(got, want) {
				t.Fatalf("Ball(%d, %d) = %v, want %v", c, radius, got, want)
			}
		}

		// BallAround: the centres first, each once and in the order given,
		// then every other node within radius of the set, by distance.
		setDist := func(v int) int {
			best := -1
			for _, c := range centres {
				if d := dist[c][v]; d >= 0 && (best < 0 || d < best) {
					best = d
				}
			}
			return best
		}
		got := tr.BallAround(g, centres, radius)
		var want []int
		for _, c := range centres {
			if !slices.Contains(want, c) {
				want = append(want, c)
			}
		}
		heads := len(want)
		for v := 0; v < n; v++ {
			if d := setDist(v); d > 0 && d <= radius {
				want = append(want, v)
			}
		}
		if len(got) != len(want) || !slices.Equal(got[:heads], want[:heads]) {
			t.Fatalf("BallAround(%v, %d) = %v, want the members %v with the centres first", centres, radius, got, want)
		}
		for i := heads; i < len(got); i++ {
			if !slices.Contains(want, got[i]) || slices.Contains(got[:i], got[i]) {
				t.Fatalf("BallAround(%v, %d) = %v, want the members %v each once", centres, radius, got, want)
			}
			if setDist(got[i]) < setDist(got[i-1]) {
				t.Fatalf("BallAround(%v, %d) = %v is not ordered by distance", centres, radius, got)
			}
		}

		for v := 0; v < n; v++ {
			if got, want := tr.Distance(g, centres[0], v), dist[centres[0]][v]; got != want {
				t.Fatalf("Distance(%d, %d) = %d, want %d", centres[0], v, got, want)
			}
		}

		// ComponentIDs: one id per reachability class, dense, in order of
		// each class's smallest member.
		ids, count := tr.ComponentIDs(g)
		next := int32(0)
		for v := 0; v < n; v++ {
			first := slices.IndexFunc(dist[v], func(d int) bool { return d >= 0 })
			if first == v {
				if ids[v] != next {
					t.Fatalf("component of smallest member %d has id %d, want %d", v, ids[v], next)
				}
				next++
			} else if ids[v] != ids[first] {
				t.Fatalf("node %d has component id %d, its smallest reachable node %d has %d", v, ids[v], first, ids[first])
			}
		}
		if count != int(next) {
			t.Fatalf("ComponentIDs counted %d components, want %d", count, next)
		}

		p := 1 + len(centres)
		for _, strat := range []PartitionStrategy{PartitionBFSBlocked, PartitionLevelContiguous} {
			pt := NewPartition(g, p, strat)
			for s := 0; s < pt.Shards(); s++ {
				boundary := pt.Boundary(s)
				var wantNodes, wantDepth []int32
				for v := 0; v < n; v++ {
					best := -1
					for _, b := range boundary {
						if d := dist[b][v]; d >= 0 && (best < 0 || d < best) {
							best = d
						}
					}
					if best >= 0 && best <= radius {
						wantNodes = append(wantNodes, int32(v))
						wantDepth = append(wantDepth, int32(best))
					}
				}
				nodes, depth := pt.Halo(s, radius)
				if !slices.Equal(nodes, wantNodes) || !slices.Equal(depth, wantDepth) {
					t.Fatalf("%v shard %d: Halo(%d) = %v at depths %v, want %v at %v", strat, s, radius, nodes, depth, wantNodes, wantDepth)
				}
			}
		}

		x := NewViewExtractor(UniformlyLabeled(g, "u"))
		for v := 0; v < n; v++ {
			if got, want := x.At(v, radius).Original, refBall(g, v, radius); !slices.Equal(got, want) {
				t.Fatalf("At(%d, %d).Original = %v, want %v", v, radius, got, want)
			}
		}
	})
}

// TestViewExtractorEpochWrap drives the extractor's search across the int32
// epoch wrap: every view extracted just before, at and after the wrap must
// equal the one-shot view, with Original in the reference ball's order.
func TestViewExtractorEpochWrap(t *testing.T) {
	l := RandomLabels(Grid(5, 6), []Label{"a", "b"}, 3)
	x := NewViewExtractor(l)
	x.At(0, 2) // size the search scratch to the host
	x.tr.epoch = math.MaxInt32 - 3
	for round := 0; round < 3; round++ {
		for v := 0; v < l.N(); v++ {
			got := x.At(v, 2)
			if !viewsIdentical(got, ObliviousViewOf(l, v, 2)) || !slices.Equal(got.Original, refBall(l.G, v, 2)) {
				t.Fatalf("round %d node %d (epoch %d): view diverges from the one-shot view", round, v, x.tr.epoch)
			}
		}
	}
	if x.tr.epoch <= 0 || x.tr.epoch > int32(3*l.N()) {
		t.Fatalf("epoch %d did not wrap", x.tr.epoch)
	}
}
