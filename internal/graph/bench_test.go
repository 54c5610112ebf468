package graph

import (
	"fmt"
	"testing"
)

// Ablation benches for DESIGN.md §5: the canonical-code implementation
// (individualisation-refinement) against the brute-force oracle, and the
// refinement-only invariant against the exact code on symmetric inputs.

func benchGraphs() []*Labeled {
	return []*Labeled{
		RandomLabels(Random(8, 0.3, 1), []Label{"a", "b"}, 2),
		UniformlyLabeled(Cycle(12), "c"),
		UniformlyLabeled(Grid(3, 4), "g"),
		UniformlyLabeled(CompleteBinaryTree(3), "t"),
	}
}

func BenchmarkCanonicalCodeIR(b *testing.B) {
	gs := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CanonicalCode(gs[i%len(gs)])
	}
}

// The integer pipeline against the legacy string encoder on the same
// inputs: the ratio here is the per-key cost cut the engine's dedup cache
// sees, and the -benchmem delta is the point (the fast path should be
// allocation-free once the workspace has warmed up).
func BenchmarkCanonicalCodeFastVsLegacy(b *testing.B) {
	gs := benchGraphs()
	b.Run("legacy-string", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RootedCanonicalCode(gs[i%len(gs)], 0)
		}
	})
	b.Run("fast-workspace", func(b *testing.B) {
		w := NewCodeWorkspace()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			w.RootedCode(gs[i%len(gs)], 0)
		}
	})
	b.Run("fast-fresh-workspace", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			NewCodeWorkspace().RootedCode(gs[i%len(gs)], 0)
		}
	})
}

// Extraction plus code computation — the engine's dedup inner loop — with
// everything routed through one extractor-owned workspace.
func BenchmarkViewCanonCode(b *testing.B) {
	hosts := map[string]*Labeled{
		"cycle10000": UniformlyLabeled(Cycle(10000), "c"),
		"grid20x20":  UniformlyLabeled(Grid(20, 20), "g"),
	}
	for name, l := range hosts {
		b.Run(name, func(b *testing.B) {
			x := NewViewExtractor(l)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				x.At((i*37)%l.N(), 2).CanonCode()
			}
		})
	}
}

func BenchmarkIsomorphismViaCodes(b *testing.B) {
	gs := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Isomorphic(gs[i%len(gs)], gs[(i+1)%len(gs)])
	}
}

func BenchmarkIsomorphismBruteForce(b *testing.B) {
	// The exponential oracle on the same inputs: the reason the canonical
	// code exists.
	gs := benchGraphs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForceIsomorphic(gs[i%len(gs)], gs[(i+1)%len(gs)])
	}
}

func BenchmarkRefinementInvariantLargeSymmetric(b *testing.B) {
	// A star with many identical leaves: worst case for IR branching, the
	// regime where the WL-1 fallback earns its keep.
	l := UniformlyLabeled(Star(400), "s")
	w := NewCodeWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.RefinementCode(l, 0)
	}
}

func BenchmarkViewExtraction(b *testing.B) {
	for _, t := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("radius-%d", t), func(b *testing.B) {
			l := UniformlyLabeled(Grid(20, 20), "g")
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ObliviousViewOf(l, (i*37)%l.N(), t)
			}
		})
	}
}

// The one-shot helper against the batched extractor on the same access
// pattern: the extractor's scratch reuse is the engine's per-node fast path,
// and the ratio here is the per-view cost of the map-backed seed path.
func BenchmarkViewExtractorVsOneShot(b *testing.B) {
	hosts := map[string]*Labeled{
		"grid20x20":  UniformlyLabeled(Grid(20, 20), "g"),
		"cycle10000": UniformlyLabeled(Cycle(10000), "c"),
	}
	for name, l := range hosts {
		for _, t := range []int{2, 3} {
			b.Run(fmt.Sprintf("%s/radius-%d/oneshot", name, t), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ObliviousViewOf(l, (i*37)%l.N(), t)
				}
			})
			b.Run(fmt.Sprintf("%s/radius-%d/extractor", name, t), func(b *testing.B) {
				x := NewViewExtractor(l)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					x.At((i*37)%l.N(), t)
				}
			})
		}
	}
}

func BenchmarkBallExtraction(b *testing.B) {
	g := Grid(30, 30)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Ball((i*101)%g.N(), 3)
	}
}

// BenchmarkFingerprint is the code-fingerprint kernel every cache lookup
// runs (raw key, canonical code and the integrity re-hash of each hit), over
// the range of code lengths the engine produces: short canonical codes of
// small views up to the multi-kilobyte raw codes of long-label views. One
// op fingerprints 64 KiB as codes of the given length, so even the CI
// smoke's single iteration times enough work to report a throughput
// (SetBytes).
func BenchmarkFingerprint(b *testing.B) {
	const batch = 64 << 10
	for _, size := range []int{8, 24, 40, 128, 512, 4096} {
		buf := fingerprintInput(size)
		b.Run(fmt.Sprintf("bytes=%d", size), func(b *testing.B) {
			b.SetBytes(int64(batch / size * size))
			var h uint64
			for b.Loop() {
				for range batch / size {
					h ^= Fingerprint(buf)
				}
			}
			fingerprintSink = h
		})
	}
}

var fingerprintSink uint64
