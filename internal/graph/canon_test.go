package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func labeledPath(labels ...Label) *Labeled {
	return NewLabeled(Path(len(labels)), labels)
}

func TestCanonicalCodeBasics(t *testing.T) {
	a := labeledPath("x", "y", "z")
	b := labeledPath("z", "y", "x") // reversal is an isomorphism
	c := labeledPath("x", "z", "y") // not isomorphic to a
	if CanonicalCode(a) != CanonicalCode(b) {
		t.Error("reversed path should have the same code")
	}
	if CanonicalCode(a) == CanonicalCode(c) {
		t.Error("different label orders along a path should differ")
	}
}

func TestCanonicalCodeDistinguishesStructure(t *testing.T) {
	// C6 vs two triangles: same degrees, same label multiset.
	c6 := UniformlyLabeled(Cycle(6), "a")
	twoTriangles := New(6)
	twoTriangles.AddEdge(0, 1)
	twoTriangles.AddEdge(1, 2)
	twoTriangles.AddEdge(2, 0)
	twoTriangles.AddEdge(3, 4)
	twoTriangles.AddEdge(4, 5)
	twoTriangles.AddEdge(5, 3)
	tt := UniformlyLabeled(twoTriangles, "a")
	if CanonicalCode(c6) == CanonicalCode(tt) {
		t.Error("C6 and 2xC3 should have different codes")
	}
}

func TestCanonicalCodeRegularPair(t *testing.T) {
	// Both 3-regular on 8 nodes: K4 x K2 (cube-ish) vs K3,3 plus... use
	// simpler: cube graph Q3 vs K4 disjoint-union K4 have same degree
	// sequence; colour refinement alone cannot split regular graphs, so this
	// exercises the individualisation branch.
	cube := New(8)
	for _, e := range [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 0},
		{4, 5}, {5, 6}, {6, 7}, {7, 4},
		{0, 4}, {1, 5}, {2, 6}, {3, 7},
	} {
		cube.AddEdge(e[0], e[1])
	}
	twoK4 := New(8)
	for _, block := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				twoK4.AddEdge(block[i], block[j])
			}
		}
	}
	a := UniformlyLabeled(cube, "")
	b := UniformlyLabeled(twoK4, "")
	if CanonicalCode(a) == CanonicalCode(b) {
		t.Error("Q3 and 2xK4 should differ")
	}
	// A relabelled cube must match the cube.
	perm := []int{3, 5, 0, 6, 2, 7, 1, 4}
	if CanonicalCode(a) != CanonicalCode(a.Relabel(perm)) {
		t.Error("relabelled cube should have identical code")
	}
}

func TestRootedCanonicalCode(t *testing.T) {
	l := UniformlyLabeled(Path(5), "")
	// Endpoints are equivalent to each other but not to the middle.
	if RootedCanonicalCode(l, 0) != RootedCanonicalCode(l, 4) {
		t.Error("path endpoints should be root-equivalent")
	}
	if RootedCanonicalCode(l, 0) == RootedCanonicalCode(l, 2) {
		t.Error("endpoint and centre should differ as roots")
	}
	if RootedCanonicalCode(l, 1) != RootedCanonicalCode(l, 3) {
		t.Error("symmetric interior nodes should be root-equivalent")
	}
}

func TestIsomorphicAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	alphabet := []Label{"a", "b"}
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(7)
		g := Random(n, 0.4, int64(trial))
		la := RandomLabels(g, alphabet, int64(trial*3+1))
		// Random permutation of la: must be isomorphic.
		perm := rng.Perm(n)
		lb := la.Relabel(perm)
		if !Isomorphic(la, lb) {
			t.Fatalf("trial %d: relabelled graph not Isomorphic", trial)
		}
		if !BruteForceIsomorphic(la, lb) {
			t.Fatalf("trial %d: brute force disagrees on relabelled graph", trial)
		}
		// An independent random graph: canonical codes must agree with brute force.
		h := Random(n, 0.4, int64(trial+1000))
		lc := RandomLabels(h, alphabet, int64(trial*5+2))
		if got, want := Isomorphic(la, lc), BruteForceIsomorphic(la, lc); got != want {
			t.Fatalf("trial %d: Isomorphic=%v, brute force=%v\nA: %v %v\nB: %v %v",
				trial, got, want, la.G.Edges(), la.Labels, lc.G.Edges(), lc.Labels)
		}
	}
}

func TestRootedIsomorphicAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []Label{"a", "b"}
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(6)
		la := RandomLabels(Random(n, 0.5, int64(trial)), alphabet, int64(trial))
		rootA := rng.Intn(n)
		perm := rng.Perm(n)
		lb := la.Relabel(perm)
		if !RootedIsomorphic(la, rootA, lb, perm[rootA]) {
			t.Fatalf("trial %d: relabelled rooted graph not isomorphic", trial)
		}
		otherRoot := rng.Intn(n)
		got := RootedIsomorphic(la, rootA, lb, otherRoot)
		want := BruteForceRootedIsomorphic(la, rootA, lb, otherRoot)
		if got != want {
			t.Fatalf("trial %d: rooted Isomorphic=%v, brute force=%v", trial, got, want)
		}
	}
}

func TestCanonicalCodeInvariantUnderRelabel_Quick(t *testing.T) {
	// Property: for any seed-derived labelled graph and permutation, the
	// canonical code is invariant.
	property := func(seed int64, permSeed int64) bool {
		n := 1 + int(abs64(seed)%8)
		l := RandomLabels(Random(n, 0.35, seed), []Label{"p", "q", "r"}, seed+1)
		perm := rand.New(rand.NewSource(permSeed)).Perm(n)
		return CanonicalCode(l) == CanonicalCode(l.Relabel(perm))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestRootedCodeInvariantUnderRelabel_Quick(t *testing.T) {
	property := func(seed int64, permSeed int64, rootPick uint8) bool {
		n := 1 + int(abs64(seed)%7)
		l := RandomLabels(Random(n, 0.35, seed), []Label{"p", "q"}, seed+2)
		root := int(rootPick) % n
		perm := rand.New(rand.NewSource(permSeed)).Perm(n)
		return RootedCanonicalCode(l, root) == RootedCanonicalCode(l.Relabel(perm), perm[root])
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		if x == -1<<63 {
			return 1<<63 - 1
		}
		return -x
	}
	return x
}
