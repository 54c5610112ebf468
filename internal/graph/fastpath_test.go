package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential suite for the shape-specialised fast paths (fastpath.go). The
// fast codes live in a byte namespace disjoint from the generic pipeline's,
// so the pinned property is the one every cache depends on: over every
// differential family, the equivalence induced by the routed codes (fast
// where a shape matches, generic otherwise) coincides exactly with the
// generic pipeline's, the legacy string canon's, and — on small inputs — the
// brute-force rooted-isomorphism oracle. On top of that, shape detection must
// be isomorphism-invariant (relabelled twins take the same path and produce
// byte-identical fast codes) and must never fire on non-path/cycle/tree
// inputs.

// fastPathFamily builds the deg ≤ 4 corpus the fast paths are specialised
// for: rooted paths (including path segments, i.e. radius-t views of long
// paths and cycle nodes), full cycles, random deg ≤ 4 trees, and extracted
// views of the Section 3 host families (cycles, grids standing in for the
// G(M,r) / pyramid shapes, complete binary trees standing in for T_r). Views
// are returned rooted at their extraction centre.
func fastPathFamily(seed int64) []rootedInput {
	rng := rand.New(rand.NewSource(seed))
	ab := []Label{"a", "b"}
	n := 4 + rng.Intn(10)
	var fam []rootedInput
	add := func(l *Labeled, root int) {
		fam = append(fam, rootedInput{l, root})
	}
	add(UniformlyLabeled(Path(n), "p"), rng.Intn(n))
	add(RandomLabels(Path(n), ab, seed), 0)
	add(RandomLabels(Path(n), ab, seed+1), n-1)
	add(UniformlyLabeled(Cycle(n), "c"), rng.Intn(n))
	add(RandomLabels(Cycle(n), ab, seed+2), rng.Intn(n))
	add(randomBoundedTree(n, 4, rng, ab), rng.Intn(n))
	add(randomBoundedTree(n, 3, rng, []Label{"x"}), 0)
	add(RandomLabels(CompleteBinaryTree(3), ab, seed+3), rng.Intn(15))
	// Views: path segments of a cycle (radius below half the girth) and tree
	// views of a binary tree; grid views exercise the generic fallback in the
	// same corpus.
	host := RandomLabels(Cycle(3*n), ab, seed+4)
	v := ObliviousViewOf(host, rng.Intn(3*n), 1+rng.Intn(3))
	add(v.Labeled, v.Root)
	trHost := RandomLabels(CompleteBinaryTree(4), ab, seed+5)
	v = ObliviousViewOf(trHost, rng.Intn(trHost.N()), 1+rng.Intn(2))
	add(v.Labeled, v.Root)
	gmHost := RandomLabels(Grid(4, 5), ab, seed+6)
	v = ObliviousViewOf(gmHost, rng.Intn(20), 1+rng.Intn(2))
	add(v.Labeled, v.Root)
	return fam
}

type rootedInput struct {
	l    *Labeled
	root int
}

// randomBoundedTree returns a random labelled tree with maximum degree ≤ d.
func randomBoundedTree(n, d int, rng *rand.Rand, alphabet []Label) *Labeled {
	g := New(n)
	deg := make([]int, n)
	for v := 1; v < n; v++ {
		u := rng.Intn(v)
		for deg[u] >= d-1 { // leave room for v's own parent edge
			u = rng.Intn(v)
		}
		g.AddEdge(v, u)
		deg[u]++
		deg[v]++
	}
	labels := make([]Label, n)
	for v := range labels {
		labels[v] = alphabet[rng.Intn(len(alphabet))]
	}
	return NewLabeled(g, labels)
}

// takesFastPath reports whether the routed code of the input came from a
// shape fast path (fast codes open with the 0x00 namespace prefix; generic
// codes of non-empty graphs open with uvarint(n) ≥ 0x01).
func takesFastPath(c Code) bool {
	return len(c.Bytes) >= 2 && c.Bytes[0] == fastCodePrefix
}

// TestFastPathTakenOnTargetShapes pins that the shapes the overhaul targets
// actually route through the fast paths, with the expected per-shape tag —
// otherwise the miss-path speedup silently evaporates.
func TestFastPathTakenOnTargetShapes(t *testing.T) {
	w := NewCodeWorkspace()
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name string
		l    *Labeled
		root int
		tag  byte
	}{
		{"path-end", UniformlyLabeled(Path(9), "p"), 0, fastTagPath},
		{"path-mid", RandomLabels(Path(9), []Label{"a", "b"}, 1), 4, fastTagPath},
		{"single-node", UniformlyLabeled(New(1), "s"), 0, fastTagPath},
		{"cycle", RandomLabels(Cycle(8), []Label{"a", "b"}, 2), 3, fastTagCycle},
		{"cycle-segment-view", func() *Labeled {
			v := ObliviousViewOf(UniformlyLabeled(Cycle(20), "c"), 7, 3)
			return v.Labeled
		}(), 0, fastTagPath},
		{"deg4-tree", randomBoundedTree(12, 4, rng, []Label{"a", "b"}), 0, fastTagTree},
		{"binary-tree", UniformlyLabeled(CompleteBinaryTree(3), "t"), 0, fastTagTree},
	}
	for _, tc := range cases {
		c := w.RootedCode(tc.l, tc.root)
		if !takesFastPath(c) {
			t.Errorf("%s: expected a fast-path code, got generic (first byte %#x)", tc.name, c.Bytes[0])
			continue
		}
		if c.Bytes[1] != tc.tag {
			t.Errorf("%s: expected tag %q, got %q", tc.name, tc.tag, c.Bytes[1])
		}
	}
}

// TestFastPathEquivalenceMatchesGenericAndLegacy is the core differential
// property: over all pairs of the deg ≤ 4 corpus (plus relabelled twins, so
// isomorphic pairs occur), the routed pipeline, the forced-generic pipeline
// and the legacy string canon induce the same equivalence.
func TestFastPathEquivalenceMatchesGenericAndLegacy(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fam := fastPathFamily(seed)
		for _, in := range fam[:4] {
			perm := rng.Perm(in.l.N())
			fam = append(fam, rootedInput{in.l.Relabel(perm), perm[in.root]})
		}
		w := NewCodeWorkspace()
		wg := NewCodeWorkspace()
		for i, a := range fam {
			routedA := w.RootedCode(a.l, a.root).Clone()
			genericA := wg.genericCode(a.l, a.root).Clone()
			legacyA := RootedCanonicalCode(a.l, a.root)
			for _, b := range fam[i:] {
				routedEq := routedA.Equal(w.RootedCode(b.l, b.root))
				genericEq := genericA.Equal(wg.genericCode(b.l, b.root))
				legacyEq := legacyA == RootedCanonicalCode(b.l, b.root)
				if routedEq != genericEq || genericEq != legacyEq {
					t.Logf("seed=%d: divergence routed=%v generic=%v legacy=%v on %v/%d vs %v/%d",
						seed, routedEq, genericEq, legacyEq, a.l, a.root, b.l, b.root)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

// TestFastCodeByteIdenticalAcrossRelabelings pins the two invariance halves
// of cache soundness separately: an isomorphic relabelling must (1) take the
// same path — fast or generic — and (2) when fast, produce byte-identical
// code from a fresh workspace.
func TestFastCodeByteIdenticalAcrossRelabelings(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, in := range fastPathFamily(seed) {
			if in.l.N() == 0 {
				continue
			}
			perm := rng.Perm(in.l.N())
			twin := rootedInput{in.l.Relabel(perm), perm[in.root]}
			a := NewCodeWorkspace().RootedCode(in.l, in.root).Clone()
			b := NewCodeWorkspace().RootedCode(twin.l, twin.root).Clone()
			if takesFastPath(a) != takesFastPath(b) {
				t.Logf("seed=%d: detection not isomorphism-invariant on %v", seed, in.l)
				return false
			}
			if !bytes.Equal(a.Bytes, b.Bytes) || a.Fingerprint != b.Fingerprint {
				t.Logf("seed=%d: relabelled twin code differs on %v root %d", seed, in.l, in.root)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestFastPathAgainstBruteForce cross-checks the routed codes against the
// exponential oracle on small fast-path shapes, independent of both reference
// pipelines.
func TestFastPathAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ab := []Label{"a", "b"}
	var fam []rootedInput
	for i := 0; i < 6; i++ {
		fam = append(fam,
			rootedInput{RandomLabels(Path(5), ab, int64(i)), rng.Intn(5)},
			rootedInput{RandomLabels(Cycle(5), ab, int64(i+20)), rng.Intn(5)},
			rootedInput{randomBoundedTree(6, 4, rng, ab), rng.Intn(6)},
		)
	}
	w := NewCodeWorkspace()
	for i, a := range fam {
		ca := w.RootedCode(a.l, a.root).Clone()
		for _, b := range fam[i:] {
			want := BruteForceRootedIsomorphic(a.l, a.root, b.l, b.root)
			if got := ca.Equal(w.RootedCode(b.l, b.root)); got != want {
				t.Fatalf("code equality %v, brute force %v on pair %d", got, want, i)
			}
		}
	}
}

// TestShapeDetectorRejectsNonTargets is the fuzz-style detector test: inputs
// that are not a rooted path, single cycle or deg ≤ 4 tree — dense random
// graphs, grids/tori, stars above the degree bound, disconnected m = n-1
// traps (triangle plus isolated nodes), 2-regular unions of two cycles —
// must never take a fast path.
func TestShapeDetectorRejectsNonTargets(t *testing.T) {
	w := NewCodeWorkspace()

	twoCycles := New(8)
	for i := 0; i < 4; i++ {
		twoCycles.AddEdge(i, (i+1)%4)
		twoCycles.AddEdge(4+i, 4+(i+1)%4)
	}
	// m = n-1 without being a tree: a triangle plus two isolated nodes.
	triangleTrap := New(5)
	triangleTrap.AddEdge(0, 1)
	triangleTrap.AddEdge(1, 2)
	triangleTrap.AddEdge(2, 0)
	// m = n-1 with all degrees ≤ 2 and still not a path: a triangle plus a
	// detached 3-node path (n = 6, m = 5) — the exact trap the arm walk's
	// visit count must catch.
	degTwoTrap := New(6)
	degTwoTrap.AddEdge(0, 1)
	degTwoTrap.AddEdge(1, 2)
	degTwoTrap.AddEdge(2, 0)
	degTwoTrap.AddEdge(3, 4)
	degTwoTrap.AddEdge(4, 5)

	fixed := []*Labeled{
		UniformlyLabeled(Star(6), "s"),      // degree 5 root
		UniformlyLabeled(Grid(3, 3), "g"),   // cycles + deg > 2
		UniformlyLabeled(Torus(3, 3), "t"),  // 4-regular with cycles
		UniformlyLabeled(Complete(5), "k"),  // dense
		UniformlyLabeled(twoCycles, "c"),    // 2-regular, two components
		UniformlyLabeled(triangleTrap, "x"), // m = n-1, disconnected, cyclic
		UniformlyLabeled(degTwoTrap, "y"),   // m = n-1, deg ≤ 2, disconnected, cyclic
		RandomLabels(Random(10, 0.5, 3), []Label{"a"}, 4),
	}
	for _, l := range fixed {
		for root := 0; root < l.N(); root++ {
			if _, ok := w.fastCode(l, root, nil); ok {
				t.Errorf("fast path fired on non-target %v root %d", l, root)
			}
		}
	}

	// Fuzz arm: random graphs; whenever the detector does fire, the input
	// must genuinely be a path / cycle / deg ≤ 4 tree rooted anywhere, which
	// we check against first principles (connectivity via Ball, edge count,
	// degree bound).
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		l := RandomLabels(Random(n, 0.25+rng.Float64()/2, seed), []Label{"a", "b"}, seed+9)
		root := rng.Intn(n)
		_, ok := w.fastCode(l, root, nil)
		g := l.G
		connected := len(g.Ball(root, n)) == n
		isTree := connected && g.M() == n-1 && g.MaxDegree() <= 4
		isCycle := connected && g.M() == n && g.MaxDegree() == 2
		if ok && !isTree && !isCycle {
			t.Logf("seed=%d: detector fired on n=%d m=%d maxdeg=%d connected=%v",
				seed, n, g.M(), g.MaxDegree(), connected)
			return false
		}
		if !ok && (isTree || isCycle) && n <= fastCodeMaxNodes {
			t.Logf("seed=%d: detector missed a genuine target n=%d m=%d", seed, n, g.M())
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFastPathSizeCap pins the fastCodeMaxNodes gate: a path one node above
// the cap must take the generic pipeline (the AHU arena and the closed-form
// walks are view-sized tools, not host-graph tools).
func TestFastPathSizeCap(t *testing.T) {
	w := NewCodeWorkspace()
	atCap := w.RootedCode(UniformlyLabeled(Path(fastCodeMaxNodes), "p"), 0).Clone()
	if !takesFastPath(atCap) {
		t.Errorf("path at the size cap should take the fast path")
	}
	above := w.RootedCode(UniformlyLabeled(Path(fastCodeMaxNodes+1), "p"), 0).Clone()
	if takesFastPath(above) {
		t.Errorf("path above the size cap must take the generic pipeline")
	}
}
