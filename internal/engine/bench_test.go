package engine

import (
	"fmt"
	"testing"

	"repro/internal/graph"
)

// Engine-level benchmarks: the batched extraction fast path against the
// seed-era per-node loop, the dedup hit rate on structured instances, and
// parallel scaling of the sharded scheduler.

// cheapDecider makes extraction dominate: the verdict is a constant-time
// structural check.
func cheapDecider(horizon int) Decider {
	return Decider{Name: "deg<=4", Horizon: horizon, Decide: func(view *graph.View) Verdict {
		return Verdict(view.G.Degree(view.Root) <= 4)
	}}
}

// canonDecider makes deciding dominate: the verdict hashes the canonical
// code, the regime where deduplication pays.
func canonDecider(horizon int) Decider {
	return Decider{Name: "canonhash", Horizon: horizon, Decide: func(view *graph.View) Verdict {
		sum := 0
		for _, b := range []byte(view.ObliviousCode()) {
			sum += int(b)
		}
		return Verdict(sum%97 != 0)
	}}
}

// expensiveDecider stands in for verification-grade deciders (fragment
// reconstruction, machine simulation) whose per-view cost dwarfs the dedup
// cache key: it recomputes the canonical code several times.
func expensiveDecider(horizon, work int) Decider {
	return Decider{Name: "expensive", Horizon: horizon, Decide: func(view *graph.View) Verdict {
		sum := 0
		for r := 0; r < work; r++ {
			for _, b := range []byte(view.ObliviousCode()) {
				sum += int(b)
			}
		}
		return Verdict(sum%97 != 0)
	}}
}

func benchHosts() map[string]*graph.Labeled {
	return map[string]*graph.Labeled{
		"cycle10k":  graph.UniformlyLabeled(graph.Cycle(10000), "c"),
		"grid60x60": graph.UniformlyLabeled(graph.Grid(60, 60), "g"),
	}
}

func BenchmarkEngineVsLegacy(b *testing.B) {
	for name, l := range benchHosts() {
		dec := cheapDecider(2)
		b.Run(name+"/legacy-loop", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				legacyEval(dec, l, nil, 0)
			}
		})
		b.Run(name+"/sequential", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EvalOblivious(dec, l, Options{})
			}
		})
		b.Run(name+"/sharded", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				EvalOblivious(dec, l, Options{Scheduler: Sharded})
			}
		})
	}
}

// Dedup pays exactly when the decider outweighs the cache key (one
// canonical code). The expensive decider is ~8 keys' worth of work; on a
// uniform cycle every node shares one view, so dedup approaches that ratio.
func BenchmarkDedup(b *testing.B) {
	l := graph.UniformlyLabeled(graph.Cycle(10000), "c")
	dec := expensiveDecider(2, 8)
	b.Run("expensive/no-dedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EvalOblivious(dec, l, Options{})
		}
	})
	b.Run("expensive/dedup", func(b *testing.B) {
		var out Outcome
		for i := 0; i < b.N; i++ {
			out = EvalOblivious(dec, l, Options{Dedup: true})
		}
		b.ReportMetric(float64(out.Stats.DedupHits)/float64(out.Stats.Nodes), "hit-rate")
	})
}

// The cross-run ViewCache on an instance family: per-run dedup re-decides
// every distinct view on every instance, the shared cache decides each view
// once for the whole family. The family is periodically-labelled cycles —
// many distinct views, all shared across instances, exactly the shape of the
// experiment sweeps and the halting promise family — and the decider is
// verification-grade, so re-deciding is the dominant cost.
func BenchmarkCrossRunCache(b *testing.B) {
	labelPeriodic := func(n, period int) *graph.Labeled {
		labels := make([]graph.Label, n)
		for v := range labels {
			labels[v] = fmt.Sprintf("p%d", v%period)
		}
		return graph.NewLabeled(graph.Cycle(n), labels)
	}
	family := []*graph.Labeled{
		labelPeriodic(512, 16),
		labelPeriodic(768, 16),
		labelPeriodic(1024, 16),
	}
	dec := expensiveDecider(2, 64)
	b.Run("per-run-dedup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, l := range family {
				EvalOblivious(dec, l, Options{Dedup: true})
			}
		}
	})
	b.Run("shared-cache", func(b *testing.B) {
		// A fresh cache per iteration keeps the measurement
		// iteration-invariant: every iteration is one cold family sweep
		// (decide each view once), not a converging pure-hit steady state.
		for i := 0; i < b.N; i++ {
			cache := NewViewCache()
			for _, l := range family {
				EvalOblivious(dec, l, Options{Cache: cache})
			}
		}
	})
}

// Scaling of the sharded scheduler with the worker cap (visible only on
// multi-core hardware; on a single-CPU host all worker counts coincide).
func BenchmarkParallelScaling(b *testing.B) {
	l := graph.UniformlyLabeled(graph.Grid(48, 48), "g")
	dec := canonDecider(1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			sched := ShardedWith(workers)
			for i := 0; i < b.N; i++ {
				EvalOblivious(dec, l, Options{Scheduler: sched})
			}
		})
	}
}

// BenchmarkEvalBatch measures the many-small-instances regime
// EvalBatchOblivious exists for — hundreds of small hosts through one launch — against the
// per-instance Eval loop every caller ran before. Both arms get the same
// options including an explicit fresh cache per iteration, so the measured
// gap is pure launch/extractor amortisation, not cache sharing (that effect
// is pinned separately by TestEvalBatchSharesCache).
func BenchmarkEvalBatch(b *testing.B) {
	dec := cheapDecider(2)
	batch := make([]*graph.Labeled, 256)
	for i := range batch {
		batch[i] = graph.RandomLabels(graph.Cycle(16+i%17), []graph.Label{"a", "b"}, int64(i))
	}
	for _, tc := range []struct {
		name  string
		sched Scheduler
	}{{"sequential", Sequential}, {"sharded", Sharded}} {
		b.Run(tc.name+"/eval-loop", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := Options{Scheduler: tc.sched, Dedup: true, Cache: NewViewCache()}
				for _, l := range batch {
					EvalOblivious(dec, l, opts)
				}
			}
		})
		b.Run(tc.name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := Options{Scheduler: tc.sched, Dedup: true, Cache: NewViewCache()}
				EvalBatchOblivious(dec, batch, opts)
			}
		})
	}
}
