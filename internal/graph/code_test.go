package graph

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Differential suite: the integer/fingerprint pipeline (code.go) against the
// reference string implementation (canon_reference_test.go). The two
// encoders produce different bytes by design; what must coincide exactly is
// the equivalence they induce — equal codes iff isomorphic — over every
// graph family the reproduction exercises.

// randomTree returns a random labelled tree on n nodes (random attachment).
func randomTree(n int, rng *rand.Rand, alphabet []Label) *Labeled {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	labels := make([]Label, n)
	for v := range labels {
		labels[v] = alphabet[rng.Intn(len(alphabet))]
	}
	return NewLabeled(g, labels)
}

// diffFamily generates the differential-test corpus for one seed: random
// trees, labelled cycles, bounded-degree random graphs and a grid, each in a
// couple of label regimes (uniform labels maximise symmetry, random labels
// maximise classes).
func diffFamily(seed int64) []*Labeled {
	rng := rand.New(rand.NewSource(seed))
	ab := []Label{"a", "b"}
	n := 5 + rng.Intn(8)
	return []*Labeled{
		randomTree(n, rng, ab),
		randomTree(n, rng, []Label{"x"}),
		UniformlyLabeled(Cycle(n), "c"),
		RandomLabels(Cycle(n), ab, seed+1),
		RandomLabels(Random(n, 0.3, seed+2), ab, seed+3),
		UniformlyLabeled(Grid(3, 3), "g"),
		RandomLabels(CompleteBinaryTree(3), ab, seed+4),
	}
}

// TestCodeMatchesLegacyEquivalence is the core differential property: over
// all pairs from the corpus (including relabelled copies, which are
// isomorphic by construction), the fast codes are equal iff the legacy
// string codes are equal — rooted and unrooted.
func TestCodeMatchesLegacyEquivalence(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		family := diffFamily(seed)
		// Add relabelled twins so the corpus contains isomorphic pairs, not
		// just (mostly) non-isomorphic ones.
		for _, l := range family[:3] {
			family = append(family, l.Relabel(rng.Perm(l.N())))
		}
		w := NewCodeWorkspace()
		for i, a := range family {
			ca := w.GraphCode(a).Clone()
			caRoot := w.RootedCode(a, 0).Clone()
			for _, b := range family[i:] {
				legacyEq := CanonicalCode(a) == CanonicalCode(b)
				fastEq := ca.Equal(w.GraphCode(b))
				if legacyEq != fastEq {
					t.Logf("seed=%d: unrooted divergence (legacy %v, fast %v) on %v vs %v",
						seed, legacyEq, fastEq, a, b)
					return false
				}
				if b.N() == 0 {
					continue
				}
				legacyEq = RootedCanonicalCode(a, 0) == RootedCanonicalCode(b, 0)
				fastEq = caRoot.Equal(w.RootedCode(b, 0))
				if legacyEq != fastEq {
					t.Logf("seed=%d: rooted divergence (legacy %v, fast %v) on %v vs %v",
						seed, legacyEq, fastEq, a, b)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestCodeInvariantUnderRelabel pins the isomorphism-invariance of the fast
// code directly: relabelling (with the root mapped along) never changes it.
func TestCodeInvariantUnderRelabel(t *testing.T) {
	property := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewCodeWorkspace()
		for _, l := range diffFamily(seed) {
			if l.N() == 0 {
				continue
			}
			perm := rng.Perm(l.N())
			root := rng.Intn(l.N())
			orig := w.RootedCode(l, root).Clone()
			if !orig.Equal(w.RootedCode(l.Relabel(perm), perm[root])) {
				t.Logf("seed=%d: code not invariant on %v", seed, l)
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestCodeAgainstBruteForce cross-checks equal-iff-isomorphic against the
// exponential oracle on small graphs, independent of the legacy encoder.
func TestCodeAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var small []*Labeled
	for i := 0; i < 8; i++ {
		small = append(small, randomTree(5, rng, []Label{"a", "b"}))
		small = append(small, RandomLabels(Random(5, 0.4, int64(i)), []Label{"a", "b"}, int64(i+50)))
	}
	w := NewCodeWorkspace()
	for i, a := range small {
		ca := w.RootedCode(a, 0).Clone()
		for _, b := range small[i:] {
			want := BruteForceRootedIsomorphic(a, 0, b, 0)
			got := ca.Equal(w.RootedCode(b, 0))
			if got != want {
				t.Fatalf("fast code equality %v, brute force %v on pair %d", got, want, i)
			}
		}
	}
}

// TestViewCodesMatchAcrossPaths pins the three ways of computing a view code
// against each other: the one-shot view, the extractor-produced view (shared
// workspace) and a direct workspace call must all agree, and the string form
// must be the byte form verbatim.
func TestViewCodesMatchAcrossPaths(t *testing.T) {
	l := RandomLabels(Grid(5, 5), []Label{"a", "b"}, 3)
	x := NewViewExtractor(l)
	w := NewCodeWorkspace()
	for v := 0; v < l.N(); v++ {
		oneShot := ObliviousViewOf(l, v, 2)
		fromExtractor := x.At(v, 2).CanonCode().Clone()
		direct := w.RootedCode(oneShot.Labeled, oneShot.Root).Clone()
		if !fromExtractor.Equal(direct) {
			t.Fatalf("node %d: extractor and direct codes differ", v)
		}
		if oneShot.ObliviousCode() != string(direct.Bytes) {
			t.Fatalf("node %d: ObliviousCode string is not the byte code", v)
		}
	}
}

// TestWorkspaceReuseIsPure computes a sequence of codes with one reused
// workspace and checks each against a fresh workspace: buffer reuse must
// never leak state between calls.
func TestWorkspaceReuseIsPure(t *testing.T) {
	reused := NewCodeWorkspace()
	for _, l := range diffFamily(11) {
		if l.N() == 0 {
			continue
		}
		got := reused.RootedCode(l, 0).Clone()
		want := NewCodeWorkspace().RootedCode(l, 0)
		if !got.Equal(want) {
			t.Fatalf("workspace reuse changed the code of %v", l)
		}
	}
}

// TestEveryCodeProducerFingerprintsItsBytes pins the fingerprint
// definition: every producer of a Code — View.RawCode, the shape fast paths,
// the generic encoder and RefinementCode — carries Fingerprint(Bytes), the
// function the engine's integrity guard re-hashes stored entries with, and
// the code is deterministic across workspaces.
func TestEveryCodeProducerFingerprintsItsBytes(t *testing.T) {
	check := func(what string, c Code) {
		t.Helper()
		if c.Fingerprint != Fingerprint(c.Bytes) {
			t.Fatalf("%s: fingerprint %#x is not Fingerprint of its %d bytes", what, c.Fingerprint, len(c.Bytes))
		}
	}
	w := NewCodeWorkspace()
	fastSeen := false
	for _, in := range fastPathFamily(5) {
		c := w.RootedCode(in.l, in.root)
		fastSeen = fastSeen || takesFastPath(c)
		check("rooted code", c)
		check("generic encoder", w.genericCode(in.l, in.root))
		check("refinement code", w.RefinementCode(in.l, in.root))
	}
	if !fastSeen {
		t.Fatal("corpus never reaches the fast paths")
	}
	check("unrooted generic encoder", w.GraphCode(UniformlyLabeled(Grid(3, 4), "g")))
	check("empty graph", w.GraphCode(NewLabeled(New(0), nil)))
	l := RandomLabels(Grid(6, 6), []Label{"a", "bb", "a long label"}, 4)
	x := NewViewExtractor(l)
	for v := 0; v < l.N(); v++ {
		check("raw code", x.At(v, 2).RawCode())
	}

	c := w.RootedCode(UniformlyLabeled(Cycle(9), "c"), 0).Clone()
	again := NewCodeWorkspace().RootedCode(UniformlyLabeled(Cycle(9), "c"), 0)
	if c.Fingerprint != again.Fingerprint || !bytes.Equal(c.Bytes, again.Bytes) {
		t.Fatal("code not deterministic across workspaces")
	}
}

// fingerprintInput is the fixed input of the golden fingerprints: n bytes
// of an arithmetic pattern that repeats only every 256 bytes.
func fingerprintInput(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*131 + 7)
	}
	return b
}

// TestFingerprintGolden pins the fingerprint of fixed inputs at both ends
// of every length class of the hash (0, 1–3, 4–8, 9–16, 17–48 and the
// 48-byte stripe loop beyond), so an edit that changes fingerprints fails
// here rather than silently re-keying every cache.
func TestFingerprintGolden(t *testing.T) {
	golden := []struct {
		n  int
		fp uint64
	}{
		{0, 0x05f03f00e3f460a7},
		{1, 0xf9316a734c1b517b},
		{3, 0xcbf28d28a018bef9},
		{4, 0x5fa94c89c9251013},
		{8, 0x14d73c6b9cbeafef},
		{9, 0x51c5f4334eb04854},
		{16, 0x4aeaf49132b1a33c},
		{17, 0x7805135f66b9dd21},
		{48, 0x10929c9a616c29cb},
		{49, 0x0b36a282170ef3cf},
		{96, 0x9c7a073e17dfe1f7},
		{97, 0xd3d5c274ac809847},
		{1000, 0xbea978e8157861a6},
	}
	for _, g := range golden {
		if got := Fingerprint(fingerprintInput(g.n)); got != g.fp {
			t.Errorf("Fingerprint of the %d-byte input = %#016x, want %#016x", g.n, got, g.fp)
		}
	}
}

// TestFingerprintSeesEveryBit flips each single bit of random inputs in
// every length class and requires the fingerprint to change: no input byte
// is skipped by the word reads, the overlapping tail reads or the lanes.
func TestFingerprintSeesEveryBit(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 48, 49, 64, 95, 96, 97, 145, 1000} {
		b := make([]byte, n)
		for trial := 0; trial < 4; trial++ {
			rng.Read(b)
			base := Fingerprint(b)
			for bit := 0; bit < 8*n; bit++ {
				b[bit/8] ^= 1 << (bit % 8)
				if Fingerprint(b) == base {
					t.Fatalf("len %d trial %d: flipping bit %d left the fingerprint unchanged", n, trial, bit)
				}
				b[bit/8] ^= 1 << (bit % 8)
			}
		}
	}
}

// TestCodeEmptyAndSingle covers the degenerate inputs.
func TestCodeEmptyAndSingle(t *testing.T) {
	w := NewCodeWorkspace()
	empty := w.GraphCode(NewLabeled(New(0), nil)).Clone()
	single := w.GraphCode(UniformlyLabeled(New(1), "x")).Clone()
	if empty.Equal(single) {
		t.Fatal("empty and single-node codes collide")
	}
	if !empty.Equal(NewCodeWorkspace().GraphCode(NewLabeled(New(0), nil))) {
		t.Fatal("empty code not deterministic")
	}
}

// TestCloneDetaches checks that Clone survives workspace reuse.
func TestCloneDetaches(t *testing.T) {
	w := NewCodeWorkspace()
	a := w.RootedCode(UniformlyLabeled(Cycle(6), "c"), 0).Clone()
	saved := append([]byte(nil), a.Bytes...)
	w.RootedCode(UniformlyLabeled(Star(8), "s"), 0) // overwrite workspace buffer
	if !bytes.Equal(a.Bytes, saved) {
		t.Fatal("Clone did not detach from workspace memory")
	}
}

// TestTwins pins the relation twin pruning skips branches by, N(u)∖{v} =
// N(v)∖{u}, on adjacent and non-adjacent pairs.
func TestTwins(t *testing.T) {
	k4, star, path := Complete(4), Star(5), Path(4)
	lonely := New(3)
	lonely.AddEdge(0, 1)
	cases := []struct {
		name string
		g    *Graph
		u, v int32
		want bool
	}{
		{"complete graph, adjacent", k4, 0, 3, true},
		{"star leaves, non-adjacent", star, 1, 4, true},
		{"star hub and leaf", star, 0, 2, false},
		{"path ends", path, 0, 3, false},
		{"path inner nodes, adjacent", path, 1, 2, false},
		{"edge ends", lonely, 0, 1, true},
		{"isolated node and edge end", lonely, 2, 0, false},
	}
	for _, c := range cases {
		if got := twins(c.g.row(int(c.u)), c.g.row(int(c.v)), c.u, c.v); got != c.want {
			t.Errorf("%s: twins(%d, %d) = %v, want %v", c.name, c.u, c.v, got, c.want)
		}
	}
}
