package engine

import (
	"testing"

	"repro/internal/graph"
)

// The integrity guard: an entry whose stored code bytes no longer hash to
// the sum recorded at insert time is evicted, counted as a reject, and
// recomputed — corruption degrades to a miss, never to a poisoned verdict.
func TestViewCacheIntegrityGuardRejectsCorruption(t *testing.T) {
	cache := NewViewCache()
	l := graph.UniformlyLabeled(graph.Cycle(50), "c")
	dec := degreeAtMost(2)

	out := EvalOblivious(dec, l, Options{Dedup: true, Cache: cache})
	if !out.Accepted {
		t.Fatal("clean cycle must accept")
	}
	if st := cache.Stats(); st.Rejects != 0 || st.Entries == 0 {
		t.Fatalf("after warmup: %+v, want entries and no rejects", st)
	}

	// Corrupt every stored entry's bytes in place (raw and canonical layers
	// both), simulating a torn write or stray memory corruption.
	corrupted := 0
	for i := range cache.shards {
		s := &cache.shards[i]
		s.mu.Lock()
		for j := range s.slots {
			if s.slots[j].live && len(s.slots[j].code) > 0 {
				s.slots[j].code[0] ^= 0xff
				corrupted++
			}
		}
		s.mu.Unlock()
	}
	if corrupted == 0 {
		t.Fatal("nothing to corrupt: the cache stored no entries")
	}

	out = EvalOblivious(dec, l, Options{Dedup: true, Cache: cache})
	if !out.Accepted {
		t.Fatal("recomputed verdicts must still accept")
	}
	st := cache.Stats()
	if st.Rejects == 0 {
		t.Fatal("corrupted entries must be rejected, not served")
	}

	// The rejected entries were recomputed and re-inserted: a third run is
	// all hits again, with no further rejects.
	before := st
	out = EvalOblivious(dec, l, Options{Dedup: true, Cache: cache})
	if !out.Accepted {
		t.Fatal("healed cache must still accept")
	}
	st = cache.Stats()
	if st.Rejects != before.Rejects {
		t.Errorf("healed cache rejected again: %d -> %d", before.Rejects, st.Rejects)
	}
	if st.Hits <= before.Hits {
		t.Error("healed cache served no hits")
	}
}

// Stats must count hits and misses across evaluations sharing the cache.
func TestViewCacheStatsCounters(t *testing.T) {
	cache := NewViewCache()
	l := graph.UniformlyLabeled(graph.Cycle(30), "c")
	dec := degreeAtMost(2)

	EvalOblivious(dec, l, Options{Dedup: true, Cache: cache})
	st := cache.Stats()
	if st.Misses == 0 {
		t.Error("first run must record misses")
	}
	if st.Entries != cache.Len() {
		t.Errorf("Entries = %d, Len = %d", st.Entries, cache.Len())
	}
	hitsBefore := st.Hits
	EvalOblivious(dec, l, Options{Dedup: true, Cache: cache})
	if st = cache.Stats(); st.Hits <= hitsBefore {
		t.Error("second run must be served from the cache")
	}
}
