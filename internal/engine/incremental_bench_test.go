package engine

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// Benchmarks for the incremental session: the CI-gated incremental-vs-scratch
// pair on the n=10^5 cycle at horizon 16, and the sustained update-absorption
// sweep across graph families (ns/op is the per-update repair cost, so
// updates/sec = 1e9 / ns/op; allocs/op is the steady-state allocation bill of
// a resident session).

// BenchmarkIncrementalVsScratch is the gate pair: one edge toggle absorbed by
// a resident session (dirty-ball repair, ~66 of 10^5 nodes at horizon 16)
// versus a from-scratch re-evaluation of the same instance. Both arms run the
// same decider, scheduler and dynamic graph representation in the same
// artifact, so runner speed cancels; CI demands incremental stay at or below
// 0.1x of scratch per update.
func BenchmarkIncrementalVsScratch(b *testing.B) {
	const n = 100_000
	dec := cheapDecider(16)
	b.Run("cycle100k-r16/incremental", func(b *testing.B) {
		l := graph.UniformlyLabeled(graph.Cycle(n), "c")
		inc := MustNewIncremental(dec, l, Options{})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			inc.ApplyEdge(3, n/2, i%2 == 0)
		}
	})
	b.Run("cycle100k-r16/scratch", func(b *testing.B) {
		l := graph.UniformlyLabeled(graph.Cycle(n), "c")
		l.G.BeginUpdates() // same dynamic representation as the session
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.G.ApplyUpdate(3, n/2, i%2 == 0)
			if out := EvalOblivious(dec, l, Options{}); out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	})
}

// updateFamilies are the hosts of the sustained update stream. The random
// family runs at horizon 2 with no dedup: radius balls blow up fast at
// expected degree 4, and the near-star views of sparse random graphs are the
// canonical code's factorial worst case.
var updateFamilies = []struct {
	name    string
	host    func() *graph.Graph
	horizon int
}{
	{"cycle100k-r16", func() *graph.Graph { return graph.Cycle(100_000) }, 16},
	{"pyramid8-r4", func() *graph.Graph { return tree.NewPyramid(8).G }, 4},
	{"random50k-r2", func() *graph.Graph { return graph.Random(50_000, 0.00008, 7) }, 2},
}

// togglePairs draws the 64 endpoint pairs an update stream over n nodes
// toggles in rotation.
func togglePairs(n int) [][2]int {
	rng := rand.New(rand.NewSource(1))
	pairs := make([][2]int, 64)
	for i := range pairs {
		u, v := rng.Intn(n), rng.Intn(n)
		for u == v {
			v = rng.Intn(n)
		}
		pairs[i] = [2]int{u, v}
	}
	return pairs
}

// BenchmarkIncrementalUpdates pins sustained absorption of a rotating toggle
// stream per family.
func BenchmarkIncrementalUpdates(b *testing.B) {
	for _, f := range updateFamilies {
		b.Run(f.name, func(b *testing.B) {
			host := f.host()
			l := graph.UniformlyLabeled(host, "c")
			inc := MustNewIncremental(cheapDecider(f.horizon), l, Options{})
			pairs := togglePairs(host.N())
			b.ReportAllocs()
			b.ResetTimer()
			dirty := 0
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				dirty += inc.ApplyEdge(p[0], p[1], !host.HasEdge(p[0], p[1]))
			}
			b.ReportMetric(float64(dirty)/float64(b.N), "dirty/op")
		})
	}
}
