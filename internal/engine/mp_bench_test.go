package engine

import (
	"fmt"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// Message-passing benchmarks: the flooding runtime's round sweep and the
// sharded halo-exchange runtime against the flooding protocol.

// BenchmarkMPRound pins the allocation discipline of the round machinery:
// one op is the production sweep (job.flood) gathering every node's radius-t
// knowledge on a cycle at n=512, t=4, on the pool width MessagePassing
// uses. Sets are merged into per-worker append-only arenas and a set nothing
// new reaches is kept as it is, so allocs/op is a handful of arena chunks,
// scratch buffers and per-round pool goroutines, independent of how many
// merges a round makes. The CI gate pins allocs/op at 512, one per node per
// whole gather.
func BenchmarkMPRound(b *testing.B) {
	const n, t = 512, 4
	l := graph.UniformlyLabeled(graph.Cycle(n), "u")
	j, err := newJob(cheapDecider(t), l, nil, Options{Scheduler: MessagePassing})
	if err != nil {
		b.Fatal(err)
	}
	width := poolWidth(0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, ok := j.flood(width); !ok {
			b.Fatal("an evaluation without a context stopped")
		}
	}
}

// BenchmarkMPCycle is the sharded-vs-legacy gate pair on the issue's pinned
// workload: a uniform cycle with n=10^5 and horizon 8. The legacy arm runs
// the flooding protocol (t sweeps gathering every node's radius-t ball,
// then a decide of every assembled view); the sharded arm partitions the
// cycle, exchanges only delta-encoded halo rings, and evaluates on
// shard-local extractors. CI gates sharded ≤ 0.5× legacy ns/op in the same
// artifact.
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

// BenchmarkMPPyramid is the sharded runtime on the level-ordered family the
// E16 sweep shards: the uniform pyramid h=8 (87,381 nodes) at t=1 with
// dedup, cut into two level-contiguous shards, against the sequential
// scheduler on the same host. The shards import 54,911 ghosts, so the arm
// weighs ghost import and sub-host assembly. The CI gate pins the
// sharded arm's allocs/op: ghost records sized from the ring schedule, one
// row arena per ring and a sub-host bound in place leave a few hundred per
// evaluation, where a row allocation per ghost made about 55,600.
func BenchmarkMPPyramid(b *testing.B) {
	l := graph.UniformlyLabeled(tree.NewPyramid(8).G, "")
	dec := cheapDecider(1)
	for _, arm := range []struct {
		name  string
		sched Scheduler
	}{
		{"sequential", Sequential},
		{"sharded", ShardedMPPartitioned(2, graph.PartitionLevelContiguous)},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := EvalOblivious(dec, l, Options{Scheduler: arm.sched, Dedup: true})
				if out.Err != nil {
					b.Fatal(out.Err)
				}
			}
		})
	}
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
