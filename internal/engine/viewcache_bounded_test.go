package engine

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// codeFor fabricates a distinct canonical code for test churn.
func codeFor(i int) graph.Code {
	b := make([]byte, 24)
	binary.LittleEndian.PutUint64(b, uint64(i))
	copy(b[8:], "bounded-churn-pad")
	return graph.Code{Fingerprint: graph.Fingerprint(b), Bytes: b}
}

// TestBoundedCacheNeverExceedsCapacity is the concurrent-churn contract of
// the bounded cache (run it under -race): N goroutines insert distinct codes
// far past capacity while a sampler thread reads Stats(); the accounted
// bytes must never exceed the configured capacity — during churn, not just
// at rest — and the final counters must reconcile (every lookup is a hit or
// a miss, evictions happened, live entries fit the budget).
func TestBoundedCacheNeverExceedsCapacity(t *testing.T) {
	const capBytes = 64 * 1024
	const goroutines = 8
	const perG = 4000
	c := NewBoundedViewCache(capBytes)

	var stop atomic.Bool
	var samples atomic.Int64
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		for !stop.Load() {
			st := c.Stats()
			if st.Bytes > st.Capacity {
				t.Errorf("mid-churn: accounted bytes %d exceed capacity %d", st.Bytes, st.Capacity)
				return
			}
			samples.Add(1)
		}
	}()

	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				code := codeFor(g*perG + i)
				verdict := Verdict(i%2 == 0)
				got, _, _ := c.lookupOrCompute("churn", 1, code, func() Verdict { return verdict })
				if got != verdict {
					t.Errorf("wrong verdict for code %d", g*perG+i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	stop.Store(true)
	<-samplerDone

	st := c.Stats()
	if st.Bytes > st.Capacity {
		t.Fatalf("final: accounted bytes %d exceed capacity %d", st.Bytes, st.Capacity)
	}
	const ops = goroutines * perG
	if st.Hits+st.Misses != ops {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, ops)
	}
	if st.Evictions == 0 {
		t.Fatal("churn past capacity must evict")
	}
	if st.Rejects != 0 {
		t.Fatalf("clean churn must not trip the integrity guard: rejects=%d", st.Rejects)
	}
	// Live entries (all canonical here) must fit the budget entry-wise too.
	if int64(st.Entries)*entryBytes(cacheKey{decider: "churn"}, codeFor(0).Bytes) > st.Capacity+cacheShardCount*entryBytes(cacheKey{decider: "churn"}, codeFor(0).Bytes) {
		t.Fatalf("implausible live entry count %d for capacity %d", st.Entries, st.Capacity)
	}
	if samples.Load() == 0 {
		t.Fatal("sampler never ran")
	}
}

// TestBoundedCacheEvictionRecompute: an evicted verdict is recomputed on the
// next lookup — eviction degrades to a miss, never to a wrong or missing
// verdict.
func TestBoundedCacheEvictionRecompute(t *testing.T) {
	// A deliberately tiny cache: room for about two entries per shard.
	c := NewBoundedViewCache(cacheShardCount * 2 * entryBytes(cacheKey{decider: "d"}, codeFor(0).Bytes))
	first := codeFor(0)
	c.lookupOrCompute("d", 1, first, func() Verdict { return Yes })
	// Churn far past capacity so the first entry is eventually evicted.
	for i := 1; i < 5000; i++ {
		c.lookupOrCompute("d", 1, codeFor(i), func() Verdict { return No })
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("churn must evict")
	}
	recomputed := false
	v, _, _ := c.lookupOrCompute("d", 1, first, func() Verdict { recomputed = true; return Yes })
	if v != Yes {
		t.Fatalf("verdict after eviction: got %v", v)
	}
	if !recomputed {
		// Not strictly impossible (the entry may have survived), but with
		// 5000 same-shard-size inserts into ~2 entries/shard it would mean
		// eviction never touched it — which the CLOCK must not guarantee.
		t.Log("first entry survived churn; CLOCK kept it resident")
	}
}

// TestBoundedCacheClockKeepsHotEntry: an entry hit between every cold
// insert carries a set reference bit whenever the CLOCK hand passes, so
// sustained churn evicts the cold entries around it and the hot verdict
// stays resident — the recency property segmented-LRU/CLOCK buys over FIFO.
func TestBoundedCacheClockKeepsHotEntry(t *testing.T) {
	// Room for about four entries per shard.
	c := NewBoundedViewCache(cacheShardCount * 4 * entryBytes(cacheKey{decider: "d"}, codeFor(0).Bytes))
	hot := codeFor(1 << 20)
	c.lookupOrCompute("d", 1, hot, func() Verdict { return Yes })
	for i := 0; i < 3000; i++ {
		c.lookupOrCompute("d", 1, codeFor(i), func() Verdict { return No })
		// Re-touch the hot entry: sets its reference bit.
		if v, computed, _ := c.lookupOrCompute("d", 1, hot, func() Verdict { return Yes }); v != Yes || computed {
			t.Fatalf("hot entry evicted at churn step %d (computed=%v)", i, computed)
		}
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("cold churn must evict")
	}
}

// TestBoundedCacheBudgetBoundsLiveHeap pins that the byte budget bounds
// real memory, not just the cache's own accounting: a bounded cache filled
// with distinct codes until its first eviction — the point where every
// shard is close to its share of the budget — has grown the live heap by
// no more than its capacity. The charge per entry (entryBytes) has to cover
// the arena slot, the map slot and the index slice behind each code: a
// charge of the code bytes plus 96 B lets 8-byte codes grow the heap to
// 2.5x the capacity. Not parallel: it reads the process-wide heap.
func TestBoundedCacheBudgetBoundsLiveHeap(t *testing.T) {
	const capBytes = 16 << 20
	for _, size := range []int{8, 32, 100, 256} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := NewBoundedViewCache(capBytes)
		code := make([]byte, size)
		n := uint64(0)
		for ; c.evictions.Load() == 0; n++ {
			binary.LittleEndian.PutUint64(code, n)
			key := graph.Code{Fingerprint: graph.Fingerprint(code), Bytes: code}
			c.lookupOrCompute("decider", 1, key, func() Verdict { return Yes })
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		growth := int64(after.HeapAlloc) - int64(before.HeapAlloc)
		st := c.Stats()
		if growth > capBytes {
			t.Errorf("%d-byte codes: live heap grew %d B for %d entries (%.0f B each, charged %.0f B), over the %d B capacity",
				size, growth, st.Entries, float64(growth)/float64(st.Entries), float64(st.Bytes)/float64(st.Entries), int64(capBytes))
		}
		if n < 1000 {
			t.Fatalf("%d-byte codes: first eviction after only %d inserts", size, n)
		}
		runtime.KeepAlive(c)
	}
}

// TestBoundedCacheOversizedEntryDeclined: an entry larger than a whole
// shard's budget is decided directly (stored=false) instead of wedging the
// CLOCK into a full-rotation failure.
func TestBoundedCacheOversizedEntryDeclined(t *testing.T) {
	c := NewBoundedViewCache(cacheShardCount * 128)
	big := make([]byte, 4096)
	code := graph.Code{Fingerprint: graph.Fingerprint(big), Bytes: big}
	v, computed, stored := c.lookupOrCompute("d", 1, code, func() Verdict { return Yes })
	if v != Yes || !computed || stored {
		t.Fatalf("oversized entry: got (%v, %v, %v), want (Yes, true, false)", v, computed, stored)
	}
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized entry leaked accounting: %+v", st)
	}
}

// TestBoundedCacheLoadHook pins the read-through path a persistent store
// serves recovered verdicts by: a verdict the load hook finds is served
// without compute, cached, never echoed into the persist hook, and counted
// as Loaded rather than as a hit or a miss; a hook miss computes and
// persists exactly once.
func TestBoundedCacheLoadHook(t *testing.T) {
	c := NewBoundedViewCache(1 << 20)
	persisted, asked := 0, 0
	c.SetPersist(func(decider string, horizon int, code []byte, verdict Verdict) { persisted++ })
	known := codeFor(7)
	c.SetLoad(func(decider string, horizon int, code []byte) (Verdict, bool) {
		asked++
		if decider == "d" && horizon == 3 && bytes.Equal(code, known.Bytes) {
			return Yes, true
		}
		return No, false
	})
	v, computed, stored := c.lookupOrCompute("d", 3, known, func() Verdict { t.Fatal("recompute"); return No })
	if v != Yes || computed || stored {
		t.Fatalf("loaded verdict: got (%v, %v, %v), want (Yes, false, false)", v, computed, stored)
	}
	if persisted != 0 {
		t.Fatalf("a loaded verdict must not reach the persist hook, got %d calls", persisted)
	}
	if st := c.Stats(); st.Loaded != 1 || st.Hits != 0 || st.Misses != 0 || st.Entries != 1 {
		t.Fatalf("after a load: %+v, want Loaded 1, Hits 0, Misses 0, Entries 1", st)
	}
	// The loaded verdict was cached: the next lookup is a hit, not a load.
	if v, computed, _ := c.lookupOrCompute("d", 3, known, func() Verdict { t.Fatal("recompute"); return No }); v != Yes || computed {
		t.Fatalf("cached loaded verdict not served: (%v, %v)", v, computed)
	}
	if asked != 1 {
		t.Fatalf("load hook asked %d times, want 1", asked)
	}
	// A hook miss computes and persists exactly once.
	fresh := codeFor(8)
	calls := 0
	for i := 0; i < 2; i++ {
		c.lookupOrCompute("d", 3, fresh, func() Verdict { calls++; return No })
	}
	if calls != 1 || persisted != 1 {
		t.Fatalf("hook miss: %d computes, %d persists, want 1 and 1", calls, persisted)
	}
	if st := c.Stats(); st.Loaded != 1 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("final counters %+v, want Loaded 1, Hits 2, Misses 1", st)
	}
}

// periodicCycleFamily is the hit-rate workload: cycles whose labels repeat
// with a short period, so each member contributes a handful of distinct
// views that recur across every sweep — the steady-state regime a resident
// service's cache lives in.
func periodicCycleFamily() []*graph.Labeled {
	alphabet := []graph.Label{"a", "b", "c"}
	family := make([]*graph.Labeled, 0, 4)
	for f, n := range []int{64, 96, 128, 160} {
		g := graph.Cycle(n)
		labels := make([]graph.Label, n)
		for i := range labels {
			// A per-member pattern: same period, different letter sequence,
			// so members share nothing and the working set is the union.
			labels[i] = alphabet[(i+(f+1)*(i%8))%3]
		}
		family = append(family, graph.NewLabeled(g, labels))
	}
	return family
}

// sweepHitRate runs rounds of full-family evaluations against cache and
// returns the cache hit rate over the measured rounds (warm-up excluded).
func sweepHitRate(tb testing.TB, cache *ViewCache, rounds int) float64 {
	tb.Helper()
	family := periodicCycleFamily()
	dec := degreeAtMost(2)
	run := func() {
		for _, l := range family {
			out := EvalOblivious(dec, l, Options{Cache: cache})
			if out.Err != nil {
				tb.Fatalf("sweep failed: %v", out.Err)
			}
		}
	}
	run() // warm-up: cold misses belong to no regime
	before := cache.Stats()
	for r := 0; r < rounds; r++ {
		run()
	}
	after := cache.Stats()
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	if hits+misses == 0 {
		tb.Fatal("no lookups measured")
	}
	return float64(hits) / float64(hits+misses)
}

// TestBoundedCacheHitRateRetention is the steady-state guarantee that the
// BenchmarkBoundedCacheHitRate row of scripts/benchgate also pins: on the
// periodic-cycle family, a bounded cache sized for the working set retains
// at least 95% of the unbounded cache's hit rate.
func TestBoundedCacheHitRateRetention(t *testing.T) {
	unbounded := sweepHitRate(t, NewViewCache(), 10)
	bounded := sweepHitRate(t, NewBoundedViewCache(boundedHitRateCapBytes), 10)
	if unbounded == 0 {
		t.Fatal("unbounded sweep produced no hits; workload broken")
	}
	if ratio := bounded / unbounded; ratio < 0.95 {
		t.Fatalf("bounded cache retains only %.3f of the unbounded hit rate (%.4f vs %.4f)",
			ratio, bounded, unbounded)
	}
}

// TestViewCacheDefaultBudget: NewViewCache is a byte-budgeted cache like
// any other, under the 1 GiB default, and the periodic-cycle family's
// working set lives in it without a single eviction.
func TestViewCacheDefaultBudget(t *testing.T) {
	c := NewViewCache()
	if got := c.Stats().Capacity; got != 1<<30 {
		t.Fatalf("NewViewCache capacity %d, want %d", got, int64(1<<30))
	}
	if rate := sweepHitRate(t, c, 10); rate == 0 {
		t.Fatal("default cache served no hits; workload broken")
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries == 0 || st.Bytes > st.Capacity {
		t.Fatalf("after the periodic-cycle sweep: %+v, want entries within capacity and no evictions", st)
	}
}

// boundedHitRateCapBytes sizes the bounded arm of the hit-rate contract: a
// few hundred KiB — far below what an unbounded cache accumulates across a
// long service life, comfortably above the periodic family's working set.
const boundedHitRateCapBytes = 256 * 1024
