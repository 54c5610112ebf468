package engine

import "testing"

// BenchmarkBoundedCacheHitRate measures the steady-state hit rate of the
// periodic-cycle family sweep (the same workload as
// TestBoundedCacheHitRateRetention) on an unbounded cache versus a bounded
// cache sized at boundedHitRateCapBytes, reporting each arm's rate as a
// "hitrate" metric. CI gates bounded/unbounded ≥ 0.95 (the
// BenchmarkBoundedCacheHitRate row of scripts/benchgate) — eviction may
// cost capacity, not the steady-state regime.
func BenchmarkBoundedCacheHitRate(b *testing.B) {
	b.Run("unbounded", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			rate = sweepHitRate(b, NewViewCache(), 10)
		}
		b.ReportMetric(rate, "hitrate")
	})
	b.Run("bounded", func(b *testing.B) {
		var rate float64
		for i := 0; i < b.N; i++ {
			rate = sweepHitRate(b, NewBoundedViewCache(boundedHitRateCapBytes), 10)
		}
		b.ReportMetric(rate, "hitrate")
	})
}
