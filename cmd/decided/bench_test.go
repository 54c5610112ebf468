package main

import (
	"path/filepath"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/store"
)

// benchDecider mirrors the engine miss benchmark's cheap decider: horizon 16
// on a randomly-labelled cycle makes every view distinct, so a cold sweep
// pays the full miss path (canonical code + insert + persist) at every node.
func benchDecider() engine.Decider {
	return engine.Decider{Name: "deg<=4", Horizon: 16, Decide: func(view *graph.View) engine.Verdict {
		return engine.Verdict(view.G.Degree(view.Root) <= 4)
	}}
}

// BenchmarkStoreWriteBehind measures what the write-behind persistence hook
// costs the eval path, in the two regimes that matter:
//
//   - steady: a warmed cache swept repeatedly — the resident service's
//     dominant regime, where every view hits and the persist hook never
//     fires, so persistence must cost the eval path nothing. (The gated
//     form of this claim is BenchmarkStoreSteadyOverhead below.)
//   - coldmiss: a fresh cache every iteration over pairwise-distinct views,
//     so all 512 nodes insert and persist — the worst case. Reported for
//     tracking; the enqueue is non-blocking (flusher I/O happens behind a
//     separate writer lock) but each fresh verdict still pays the dedup-map
//     and queue handoff, so this regime is bounded, not free.
func BenchmarkStoreWriteBehind(b *testing.B) {
	host := graph.RandomLabels(graph.Cycle(512), []graph.Label{"a", "b"}, 23)
	dec := benchDecider()
	sweep := func(b *testing.B, cache *engine.ViewCache) {
		out := engine.EvalOblivious(dec, host, engine.Options{Cache: cache})
		if out.Err != nil {
			b.Fatalf("sweep failed: %v", out.Err)
		}
	}
	openStore := func(b *testing.B) *store.Store {
		st, err := store.Open(filepath.Join(b.TempDir(), "bench.log"), store.Options{QueueDepth: 4096})
		if err != nil {
			b.Fatalf("store: %v", err)
		}
		b.Cleanup(func() { st.Close() })
		return st
	}
	b.Run("steady/nostore", func(b *testing.B) {
		cache := engine.NewBoundedViewCache(1 << 22)
		sweep(b, cache)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, cache)
		}
	})
	b.Run("steady/store", func(b *testing.B) {
		st := openStore(b)
		cache := engine.NewBoundedViewCache(1 << 22)
		cache.SetPersist(func(decider string, horizon int, code []byte, verdict engine.Verdict) {
			st.Put(store.Record{Decider: decider, Horizon: horizon, Code: code, Verdict: bool(verdict)})
		})
		sweep(b, cache)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, cache)
		}
	})
	b.Run("coldmiss/nostore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweep(b, engine.NewBoundedViewCache(1<<22))
		}
	})
	b.Run("coldmiss/store", func(b *testing.B) {
		st := openStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache := engine.NewBoundedViewCache(1 << 22)
			// The decider name is salted per iteration so every record is a
			// fresh key: each iteration pays the full enqueue path, not the
			// cheaper already-known dedup check.
			salt := strconv.Itoa(i) + "/"
			cache.SetPersist(func(decider string, horizon int, code []byte, verdict engine.Verdict) {
				st.Put(store.Record{Decider: salt + decider, Horizon: horizon, Code: code, Verdict: bool(verdict)})
			})
			sweep(b, cache)
		}
	})
}

// BenchmarkStoreSteadyOverhead is the gated form of the steady-state claim:
// it times the store-backed and store-free sweeps interleaved, pair by pair,
// inside one benchmark run — machine noise and frequency drift hit both arms
// of a pair alike — and reports the median per-pair backed/plain ratio as an
// "overhead" metric. The median is the right statistic for the bound: a real
// persist-hook cost would inflate most pairs and shift it, while a noise
// spike landing on either arm of a few pairs cannot. CI gates overhead
// ≤ 1.05 (the BenchmarkStoreSteadyOverhead row of scripts/benchgate): once
// the cache is warm the persist hook never fires, so the store must cost the
// eval hot path nothing beyond noise. The split two-arm wall-clock benchmark
// above is for tracking; ratios of independently-timed arms are too noisy on
// shared runners to gate at 5%.
func BenchmarkStoreSteadyOverhead(b *testing.B) {
	host := graph.RandomLabels(graph.Cycle(512), []graph.Label{"a", "b"}, 23)
	dec := benchDecider()
	sweep := func(cache *engine.ViewCache) {
		out := engine.EvalOblivious(dec, host, engine.Options{Cache: cache})
		if out.Err != nil {
			b.Fatalf("sweep failed: %v", out.Err)
		}
	}
	st, err := store.Open(filepath.Join(b.TempDir(), "bench.log"), store.Options{QueueDepth: 4096})
	if err != nil {
		b.Fatalf("store: %v", err)
	}
	defer st.Close()
	plain := engine.NewBoundedViewCache(1 << 22)
	backed := engine.NewBoundedViewCache(1 << 22)
	backed.SetPersist(func(decider string, horizon int, code []byte, verdict engine.Verdict) {
		st.Put(store.Record{Decider: decider, Horizon: horizon, Code: code, Verdict: bool(verdict)})
	})
	sweep(plain)
	sweep(backed)
	const pairs = 16
	var ratios []float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p := 0; p < pairs; p++ {
			t0 := time.Now()
			sweep(plain)
			t1 := time.Now()
			sweep(backed)
			t2 := time.Now()
			ratios = append(ratios, float64(t2.Sub(t1))/float64(t1.Sub(t0)))
		}
	}
	sort.Float64s(ratios)
	b.ReportMetric(ratios[len(ratios)/2], "overhead")
}
