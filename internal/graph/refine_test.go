package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

// refinementCorpus draws rooted graphs of 1..maxN nodes over two labels,
// each followed by a randomly renumbered copy, so the corpus holds both
// isomorphic and non-isomorphic pairs.
func refinementCorpus(count, maxN int, seed int64) []*Labeled {
	rng := rand.New(rand.NewSource(seed))
	var out []*Labeled
	for len(out) < count {
		n := 1 + rng.Intn(maxN)
		l := RandomLabels(Random(n, rng.Float64()*0.6, rng.Int63()), []Label{"a", "b"}, rng.Int63())
		out = append(out, l, l.Relabel(rng.Perm(n)))
	}
	return out
}

// The integer refinement code must induce exactly the equivalence of the
// string code it replaced, pair by pair over the corpus.
func TestRefinementCodeMatchesStringReference(t *testing.T) {
	corpus := refinementCorpus(600, 10, 5)
	w := NewCodeWorkspace()
	type coded struct {
		fast   []byte
		legacy string
	}
	codes := make([]coded, len(corpus))
	for i, l := range corpus {
		root := i % l.N()
		codes[i] = coded{fast: w.RefinementCode(l, root).Clone().Bytes, legacy: RootedRefinementCode(l, root)}
	}
	equalPairs := 0
	for i := range codes {
		for j := i + 1; j < len(codes); j++ {
			fastEq := bytes.Equal(codes[i].fast, codes[j].fast)
			if legacyEq := codes[i].legacy == codes[j].legacy; fastEq != legacyEq {
				t.Fatalf("graphs %d and %d: integer code equal %v, string code equal %v", i, j, fastEq, legacyEq)
			}
			if fastEq {
				equalPairs++
			}
		}
	}
	if equalPairs == 0 {
		t.Fatal("corpus has no equal pairs; the comparison proves little")
	}
}

// A refinement code opens with 0x00 and its own tag and never equals an
// exact code — generic or fast-path, rooted or unrooted — of any graph, so
// neighbourhood sets may mix the two kinds.
func TestRefinementCodeNeverEqualsExactCode(t *testing.T) {
	// The generic search branches factorially on symmetric inputs, so the
	// random part stays at six nodes and the shapes stay small.
	rng := rand.New(rand.NewSource(3))
	corpus := refinementCorpus(300, 6, 7)
	corpus = append(corpus,
		UniformlyLabeled(New(1), "s"),
		UniformlyLabeled(Path(7), "p"),
		RandomLabels(Cycle(9), []Label{"a", "b"}, 1),
		UniformlyLabeled(CompleteBinaryTree(3), "t"),
		randomBoundedTree(14, 4, rng, []Label{"a", "b"}),
		UniformlyLabeled(Star(5), "s"),
		UniformlyLabeled(Grid(3, 4), "g"),
	)
	w := NewCodeWorkspace()
	exact := map[string]bool{}
	kinds := map[byte]bool{}
	for _, l := range corpus {
		exact[string(w.GraphCode(l).Bytes)] = true
		for root := 0; root < l.N(); root++ {
			c := w.RootedCode(l, root)
			if c.Bytes[0] == fastCodePrefix {
				kinds[c.Bytes[1]] = true
			} else {
				kinds[0] = true
			}
			exact[string(c.Bytes)] = true
			exact[string(w.genericCode(l, root).Bytes)] = true
		}
	}
	for _, k := range []byte{0, fastTagPath, fastTagCycle, fastTagTree} {
		if !kinds[k] {
			t.Fatalf("corpus never reaches exact-code kind %q", k)
		}
	}
	for i, l := range corpus {
		for root := 0; root < l.N(); root++ {
			c := w.RefinementCode(l, root)
			if len(c.Bytes) < 2 || c.Bytes[0] != fastCodePrefix || c.Bytes[1] != refineCodeTag {
				t.Fatalf("graph %d root %d: refinement code lacks its namespace prefix", i, root)
			}
			if exact[string(c.Bytes)] {
				t.Fatalf("graph %d root %d: refinement code equals an exact code", i, root)
			}
			if c.Fingerprint != Fingerprint(c.Bytes) {
				t.Fatalf("graph %d root %d: fingerprint does not match the bytes", i, root)
			}
		}
	}
}

// Labels are copied verbatim into the code, so a label substring search
// over the code finds every label of the graph.
func TestRefinementCodeCarriesLabelsVerbatim(t *testing.T) {
	l := NewLabeled(Path(4), []Label{"cell{s=1;q=2;", "x\x00y", "\"quoted\"", "cell{s=1;q=2;"})
	code := NewCodeWorkspace().RefinementCode(l, 1)
	for _, lab := range l.Labels {
		if !bytes.Contains(code.Bytes, []byte(lab)) {
			t.Fatalf("label %q missing from the code", lab)
		}
	}
}
