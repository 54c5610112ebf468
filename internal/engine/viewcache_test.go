package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/graph"
)

// TestViewCacheFingerprintCollisionFallback fabricates two codes with the
// same fingerprint but different bytes: the cache must keep both verdicts
// apart by verifying the full byte code, never serving one view's verdict
// for the other.
func TestViewCacheFingerprintCollisionFallback(t *testing.T) {
	c := NewViewCache()
	codeA := graph.Code{Fingerprint: 42, Bytes: []byte("view-A")}
	codeB := graph.Code{Fingerprint: 42, Bytes: []byte("view-B")}

	v, computed, stored := c.lookupOrCompute("d", 1, codeA, func() Verdict { return Yes })
	if v != Yes || !computed || !stored {
		t.Fatalf("first insert: got (%v, %v, %v)", v, computed, stored)
	}
	v, computed, stored = c.lookupOrCompute("d", 1, codeB, func() Verdict { return No })
	if v != No || !computed || !stored {
		t.Fatalf("colliding insert must compute its own verdict: got (%v, %v, %v)", v, computed, stored)
	}
	// Both survive, resolved by byte comparison.
	if v, computed, _ := c.lookupOrCompute("d", 1, codeA, func() Verdict { t.Fatal("recompute"); return No }); v != Yes || computed {
		t.Fatalf("collision victim A lost its verdict: got (%v, %v)", v, computed)
	}
	if v, computed, _ := c.lookupOrCompute("d", 1, codeB, func() Verdict { t.Fatal("recompute"); return Yes }); v != No || computed {
		t.Fatalf("collision victim B lost its verdict: got (%v, %v)", v, computed)
	}
	if c.Len() != 2 {
		t.Fatalf("cache should hold both colliding entries, Len=%d", c.Len())
	}
}

// TestViewCacheKeyScoping: the same code under a different decider name or
// horizon is a different key — no cross-talk between deciders sharing one
// cache.
func TestViewCacheKeyScoping(t *testing.T) {
	c := NewViewCache()
	code := graph.Code{Fingerprint: 7, Bytes: []byte("v")}
	c.lookupOrCompute("a", 1, code, func() Verdict { return Yes })
	if v, _, _ := c.lookupOrCompute("b", 1, code, func() Verdict { return No }); v != No {
		t.Fatal("decider name not part of the key")
	}
	if v, _, _ := c.lookupOrCompute("a", 2, code, func() Verdict { return No }); v != No {
		t.Fatal("horizon not part of the key")
	}
	if v, computed, _ := c.lookupOrCompute("a", 1, code, func() Verdict { return No }); v != Yes || computed {
		t.Fatal("original entry lost")
	}
}

// TestViewCacheComputesOncePerCodeConcurrently hammers one small key set
// from many goroutines: the single critical section per lookup-or-insert
// must yield exactly one compute per distinct (key, code).
func TestViewCacheComputesOncePerCodeConcurrently(t *testing.T) {
	c := NewViewCache()
	const codes = 32
	const goroutines = 16
	const rounds = 200
	var computes atomic.Int64
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i + g) % codes
				code := graph.Code{Fingerprint: uint64(k), Bytes: []byte(fmt.Sprintf("code-%d", k))}
				want := Verdict(k%2 == 0)
				got, _, _ := c.lookupOrCompute("d", 1, code, func() Verdict {
					computes.Add(1)
					return want
				})
				if got != want {
					t.Errorf("code %d: got %v want %v", k, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if n := computes.Load(); n != codes {
		t.Fatalf("expected exactly %d computes, got %d", codes, n)
	}
	if c.Len() != codes {
		t.Fatalf("Len=%d, want %d", c.Len(), codes)
	}
}

// TestCrossRunCacheReuse is the cache's reason to exist: a second evaluation
// over an instance whose views were all decided by the first must not invoke
// the decider at all, and verdicts must match the uncached evaluation.
func TestCrossRunCacheReuse(t *testing.T) {
	dec := parityDeciders()["obl-viewhash"]
	first := graph.UniformlyLabeled(graph.Cycle(200), "u")
	second := graph.UniformlyLabeled(graph.Cycle(350), "u") // same views, different size
	cache := NewViewCache()

	for _, sched := range []Scheduler{Sequential, Sharded} {
		cold := EvalOblivious(dec, first, Options{Scheduler: sched, Cache: cache})
		if !cold.Stats.CacheShared {
			t.Fatalf("%s: CacheShared not reported", sched.Name())
		}
		warm := EvalOblivious(dec, second, Options{Scheduler: sched, Cache: cache})
		if warm.Stats.Evaluated != 0 {
			t.Errorf("%s: warm run re-decided %d views (hits=%d)",
				sched.Name(), warm.Stats.Evaluated, warm.Stats.DedupHits)
		}
		if warm.Stats.DedupHits != second.N() {
			t.Errorf("%s: warm run hits=%d, want %d", sched.Name(), warm.Stats.DedupHits, second.N())
		}
		plain := EvalOblivious(dec, second, Options{Scheduler: sched})
		for v := range plain.Verdicts {
			if plain.Verdicts[v] != warm.Verdicts[v] {
				t.Fatalf("%s: cached verdict diverges at node %d", sched.Name(), v)
			}
		}
	}
	// A uniform cycle has one interior view plus boundary-free symmetry:
	// the cache stays tiny across both instances.
	if cache.Len() == 0 || cache.Len() > 4 {
		t.Errorf("unexpected cache size %d for uniform cycles", cache.Len())
	}
}

// TestCacheImpliesDedup: setting Options.Cache without Dedup still
// deduplicates (documented behaviour), and identifier-carrying or randomized
// evaluations silently skip the cache.
func TestCacheImpliesDedup(t *testing.T) {
	dec := parityDeciders()["obl-viewhash"]
	l := graph.UniformlyLabeled(graph.Cycle(120), "u")
	cache := NewViewCache()
	out := EvalOblivious(dec, l, Options{Cache: cache})
	if out.Stats.DedupHits == 0 || cache.Len() == 0 {
		t.Fatalf("Cache alone should enable dedup: %+v", out.Stats)
	}

	// Randomized decider: cache must remain untouched.
	randCache := NewViewCache()
	rd := parityDeciders()["rand-coin"]
	EvalOblivious(rd, l, Options{Cache: randCache, Seed: 3})
	if randCache.Len() != 0 {
		t.Fatalf("randomized evaluation must not populate the cache, Len=%d", randCache.Len())
	}

	// Identifier-carrying evaluation: likewise.
	idCache := NewViewCache()
	in := graph.NewInstance(l, idsFor(l.N(), 5))
	idDec := parityDeciders()["id-viewhash"]
	Eval(idDec, in, Options{Cache: idCache})
	if idCache.Len() != 0 {
		t.Fatalf("identifier-carrying evaluation must not populate the cache, Len=%d", idCache.Len())
	}
}

// TestCrossRunCacheParityOnFamily runs a whole instance family through one
// shared cache and pins every per-node verdict against fresh uncached
// evaluations, across schedulers — the cross-run analogue of the parity
// suite.
func TestCrossRunCacheParityOnFamily(t *testing.T) {
	dec := parityDeciders()["obl-viewhash"]
	family := []*graph.Labeled{
		graph.UniformlyLabeled(graph.Cycle(64), "u"),
		graph.UniformlyLabeled(graph.Cycle(96), "u"),
		graph.RandomLabels(graph.Grid(6, 6), []graph.Label{"a", "b"}, 1),
		graph.RandomLabels(graph.Grid(8, 6), []graph.Label{"a", "b"}, 1),
		graph.UniformlyLabeled(graph.CompleteBinaryTree(5), "t"),
	}
	for _, sched := range []Scheduler{Sequential, Sharded, ShardedWith(3)} {
		cache := NewViewCache()
		for i, l := range family {
			cached := EvalOblivious(dec, l, Options{Scheduler: sched, Cache: cache})
			plain := EvalOblivious(dec, l, Options{Scheduler: sched})
			for v := range plain.Verdicts {
				if cached.Verdicts[v] != plain.Verdicts[v] {
					t.Fatalf("%s instance %d: cached verdict diverges at node %d", sched.Name(), i, v)
				}
			}
			if cached.Stats.CacheSize != cache.Len() {
				t.Fatalf("%s instance %d: CacheSize %d, cache.Len %d",
					sched.Name(), i, cached.Stats.CacheSize, cache.Len())
			}
		}
	}
}

// TestRawLayerNamespaceSeparation: a raw entry and a canonical entry with the
// same fingerprint and the same bytes must never be confused — the raw flag
// keys two disjoint namespaces.
func TestRawLayerNamespaceSeparation(t *testing.T) {
	c := NewViewCache()
	code := graph.Code{Fingerprint: 9, Bytes: []byte("same-bytes")}
	c.lookupOrCompute("d", 1, code, func() Verdict { return Yes })
	if _, ok := c.lookupRaw("d", 1, code); ok {
		t.Fatal("canonical entry leaked into the raw namespace")
	}
	c.storeRaw("d", 1, code, No)
	if v, ok := c.lookupRaw("d", 1, code); !ok || v != No {
		t.Fatalf("raw entry not served: (%v, %v)", v, ok)
	}
	if v, computed, _ := c.lookupOrCompute("d", 1, code, func() Verdict { t.Fatal("recompute"); return No }); v != Yes || computed {
		t.Fatalf("raw entry overwrote the canonical verdict: (%v, %v)", v, computed)
	}
	if c.Len() != 1 {
		t.Fatalf("Len must count canonical entries only, got %d", c.Len())
	}
}

// TestRawLayerScoping mirrors TestViewCacheKeyScoping for the raw layer.
func TestRawLayerScoping(t *testing.T) {
	c := NewViewCache()
	code := graph.Code{Fingerprint: 3, Bytes: []byte("r")}
	c.storeRaw("a", 1, code, Yes)
	if _, ok := c.lookupRaw("b", 1, code); ok {
		t.Fatal("decider name not part of the raw key")
	}
	if _, ok := c.lookupRaw("a", 2, code); ok {
		t.Fatal("horizon not part of the raw key")
	}
	if v, ok := c.lookupRaw("a", 1, code); !ok || v != Yes {
		t.Fatalf("raw entry lost: (%v, %v)", v, ok)
	}
}

// TestRawCodeDistinguishesViews: raw codes must differ whenever structure,
// labels or root differ — the soundness direction of the raw dedup layer
// (equal raw code => identical view).
func TestRawCodeDistinguishesViews(t *testing.T) {
	host := graph.UniformlyLabeled(graph.Path(5), "x")
	a := graph.ObliviousViewOf(host, 0, 1) // path end: 2-node view
	b := graph.ObliviousViewOf(host, 2, 1) // interior: 3-node view
	c := graph.ObliviousViewOf(host, 3, 1) // interior elsewhere: same shape as b
	ra := a.RawCode().Clone()
	rb := b.RawCode().Clone()
	rc := c.RawCode().Clone()
	if ra.Equal(rb) {
		t.Fatal("different-size views share a raw code")
	}
	if !rb.Equal(rc) {
		t.Fatal("byte-identical interior views must share a raw code")
	}
	labelled := graph.NewLabeled(host.G, []graph.Label{"x", "x", "y", "x", "x"})
	d := graph.ObliviousViewOf(labelled, 3, 1)
	if d.RawCode().Equal(rc) {
		t.Fatal("label change must change the raw code")
	}
}

// TestRawLayerParityWithDedup: evaluating with dedup (raw layer active) must
// produce verdicts identical to a dedup-free evaluation on an instance whose
// views repeat only up to isomorphism (so both cache levels get exercised).
func TestRawLayerParityWithDedup(t *testing.T) {
	l := graph.RandomLabels(graph.Random(60, 0.1, 3), []graph.Label{"a", "b"}, 4)
	dec := Decider{Name: "parity-raw", Horizon: 2, Decide: func(view *graph.View) Verdict {
		return Verdict(view.G.Degree(view.Root)%2 == 0)
	}}
	plain := EvalOblivious(dec, l, Options{})
	dedup := EvalOblivious(dec, l, Options{Dedup: true})
	for v := range plain.Verdicts {
		if plain.Verdicts[v] != dedup.Verdicts[v] {
			t.Fatalf("verdict mismatch at node %d", v)
		}
	}
	if dedup.Stats.DedupHits+dedup.Stats.Evaluated != l.N() {
		t.Fatalf("hits %d + evaluated %d != n %d", dedup.Stats.DedupHits, dedup.Stats.Evaluated, l.N())
	}
}

// TestCodeFingerprintsSpreadOverShards pins that the cache's shard index —
// the low bits of a code's fingerprint — spreads real view codes evenly:
// the distinct raw and canonical codes of a randomly two-letter-labelled
// cycle, binary tree and grid each fill every shard, and no shard draws
// more than twice the mean. A fingerprint whose low bits depend only on the
// low bits of the input bytes crowds the cycle's codes into a quarter of
// the shards, so a bounded cache evicts from those while the rest of its
// budget stays idle.
func TestCodeFingerprintsSpreadOverShards(t *testing.T) {
	ab := []graph.Label{"a", "b"}
	hosts := []struct {
		name string
		l    *graph.Labeled
		r    int
	}{
		{"cycle5000-r8", graph.RandomLabels(graph.Cycle(5000), ab, 1), 8},
		{"tree11-r4", graph.RandomLabels(graph.CompleteBinaryTree(11), ab, 2), 4},
		{"grid50-r3", graph.RandomLabels(graph.Grid(50, 50), ab, 3), 3},
	}
	for _, h := range hosts {
		raw, canon := map[string]uint64{}, map[string]uint64{}
		x := graph.NewViewExtractor(h.l)
		for v := 0; v < h.l.N(); v++ {
			view := x.At(v, h.r)
			rc := view.RawCode()
			raw[string(rc.Bytes)] = rc.Fingerprint
			cc := view.CanonCode()
			canon[string(cc.Bytes)] = cc.Fingerprint
		}
		for kind, codes := range map[string]map[string]uint64{"raw": raw, "canonical": canon} {
			var perShard [cacheShardCount]int
			for _, fp := range codes {
				perShard[fp&(cacheShardCount-1)]++
			}
			mean := float64(len(codes)) / cacheShardCount
			for shard, n := range perShard {
				if n == 0 || float64(n) > 2*mean {
					t.Errorf("%s %s codes: shard %d holds %d of %d codes (mean %.1f); want every shard in (0, %.1f]",
						h.name, kind, shard, n, len(codes), mean, 2*mean)
				}
			}
		}
	}
}
