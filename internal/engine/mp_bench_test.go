package engine

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// Message-passing benchmarks: the flooding knowledge machinery (the
// per-round merge/snapshot discipline over sets of node addresses) and the
// sharded halo-exchange runtime against the per-node flooding protocol.

// BenchmarkMPRound pins the allocation discipline of the round machinery:
// one op is a full t-round synchronous gather on a cycle, simulated
// sequentially so goroutine scheduling stays out of the measurement. The
// double-buffered merge reuses its arrays, so allocs/op is dominated by the
// per-round snapshots plus amortised buffer growth — linear in n·t, not
// quadratic in merged knowledge volume. The CI gate pins allocs/op at
// 12288, 6 per node·round; knowledge that carried each known node's row,
// label and identifier took 17.5, and per-edge maps several times more.
func BenchmarkMPRound(b *testing.B) {
	const n, t = 512, 4
	l := graph.UniformlyLabeled(graph.Cycle(n), "u")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bufs := make([]knowledgeBuf, n)
		for v := range bufs {
			bufs[v] = newNodeKnowledge(v)
		}
		snaps := make([][]int32, n)
		for r := 0; r < t; r++ {
			for v := range bufs {
				snaps[v] = bufs[v].snapshot()
			}
			for v := 0; v < n; v++ {
				for _, u := range l.G.Neighbors(v) {
					bufs[v].absorb(snaps[u])
				}
			}
		}
	}
}

// BenchmarkMPCycle is the sharded-vs-legacy gate pair on the issue's pinned
// workload: a uniform cycle with n=10^5 and horizon 8. The legacy arm runs
// the per-node flooding protocol (n goroutines, per-edge channels, radius-t
// snapshot gathering); the sharded arm partitions the cycle, exchanges only
// delta-encoded halo rings, and evaluates on shard-local extractors. CI
// gates sharded ≤ 0.5× legacy ns/op in the same artifact.
func BenchmarkMPCycle(b *testing.B) {
	l := graph.UniformlyLabeled(graph.Cycle(100_000), "u")
	dec := cheapDecider(8)
	b.Run("legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := EvalOblivious(dec, l, Options{Scheduler: MessagePassing})
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	})
	b.Run("sharded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := EvalOblivious(dec, l, Options{Scheduler: ShardedMP})
			if out.Err != nil {
				b.Fatal(out.Err)
			}
		}
	})
}

// BenchmarkMPShards sweeps the shard count on the same workload — the
// shards-vs-throughput curve of the README's sharded tour. One shard is the
// degenerate no-exchange case (a single extractor pass); the interesting
// scaling question is how the halo-exchange cost grows against the
// evaluation parallelism won.
func BenchmarkMPShards(b *testing.B) {
	l := graph.UniformlyLabeled(graph.Cycle(100_000), "u")
	dec := cheapDecider(8)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := EvalOblivious(dec, l, Options{Scheduler: ShardedMPWith(p)})
				if out.Err != nil {
					b.Fatal(out.Err)
				}
			}
		})
	}
}
