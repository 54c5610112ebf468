package graph

import (
	"fmt"
	"testing"
)

// Benchmarks for the Traversal scratch at production scale (n=10^5–10^6):
// steady-state whole-graph analyses must report 0 allocs/op, and the
// scratch variants are pinned against the allocating wrappers so the win
// stays measured. The BenchmarkBFSLarge/cycle/n=1000000 and
// BenchmarkTraversalBFS/cycle/n=1000000 rows of scripts/benchgate gate the
// n=10^6 BFS.

func traversalBenchHosts() map[string]*Graph {
	return map[string]*Graph{
		"cycle/n=100000":   Cycle(100_000),
		"cycle/n=1000000":  Cycle(1_000_000),
		"sparse/n=1000000": FromEdges(1_000_000, sparseEdges(1_000_000)),
	}
}

// BenchmarkTraversalBFS measures scratch-based full-graph BFS: same hosts
// as BenchmarkBFSLarge, 0 allocs/op steady-state (the wrapper's ~24MB/op
// at n=10^6 was the ROADMAP's large-n BFS allocation item).
func BenchmarkTraversalBFS(b *testing.B) {
	for name, g := range traversalBenchHosts() {
		b.Run(name, func(b *testing.B) {
			tr := NewTraversal()
			tr.BFSFrom(g, 0) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dist := tr.BFSFrom(g, i%g.N())
				if len(dist) != g.N() {
					b.Fatal("bad BFS")
				}
			}
		})
	}
}

// BenchmarkTraversalComponents measures scratch-based component labelling
// (the ConnectedComponents core) at n=10^6: 0 allocs/op steady-state.
func BenchmarkTraversalComponents(b *testing.B) {
	for name, g := range traversalBenchHosts() {
		b.Run(name, func(b *testing.B) {
			tr := NewTraversal()
			tr.ComponentIDs(g) // warm the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, count := tr.ComponentIDs(g); count < 1 {
					b.Fatal("bad components")
				}
			}
		})
	}
}

// BenchmarkTraversalBall pins the allocation-free Ball against the
// allocating wrapper on a sparse 10^6-node host: per-ball cost must stay
// flat and scratch-based calls allocation-free regardless of host size.
func BenchmarkTraversalBall(b *testing.B) {
	g := FromEdges(1_000_000, sparseEdges(1_000_000))
	b.Run("scratch/n=1000000/radius=3", func(b *testing.B) {
		tr := NewTraversal()
		tr.Ball(g, 0, 3)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Ball(g, (i*7919)%g.N(), 3)
		}
	})
	b.Run("wrapper/n=1000000/radius=3", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.Ball((i*7919)%g.N(), 3)
		}
	})
}

// BenchmarkTraversalDiameter runs the n-BFS diameter sweep on a mid-size
// host through the scratch (the per-source distance vectors the wrapper
// used to allocate dominate its profile at this size).
func BenchmarkTraversalDiameter(b *testing.B) {
	for _, n := range []int{1_000, 10_000} {
		g := Cycle(n)
		b.Run(fmt.Sprintf("cycle/n=%d", n), func(b *testing.B) {
			tr := NewTraversal()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if d := tr.Diameter(g); d != n/2 {
					b.Fatalf("bad diameter %d", d)
				}
			}
		})
	}
}
