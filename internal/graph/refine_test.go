package graph

import (
	"bytes"
	"math/rand"
	"slices"
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

// decodeRefineInput turns fuzz bytes into a labelled graph of 1 to 64 nodes
// over a three-letter alphabet, an optional root and an optional vertex to
// individualise after the first refinement (-1 when absent). Byte 0 is the
// node count, byte 1 the flags (bit 0: rooted, bit 1: individualise), bytes
// 2 and 3 the root and the vertex, then one label byte per node, then edges
// as endpoint pairs; self-loops are dropped and repeats merged.
func decodeRefineInput(data []byte) (l *Labeled, root, indiv int) {
	if len(data) < 4 {
		return nil, -1, -1
	}
	n := 1 + int(data[0])%64
	root, indiv = -1, -1
	if data[1]&1 != 0 {
		root = int(data[2]) % n
	}
	if data[1]&2 != 0 {
		indiv = int(data[3])
	}
	data = data[4:]
	labels := make([]Label, n)
	for v := range labels {
		labels[v] = "a"
		if v < len(data) {
			labels[v] = Label(rune('a' + data[v]%3))
		}
	}
	data = data[min(n, len(data)):]
	b := NewBuilder(n)
	for ; len(data) >= 2; data = data[2:] {
		if u, v := int(data[0])%n, int(data[1])%n; u != v {
			b.AddEdge(u, v)
		}
	}
	return NewLabeled(b.Build(), labels), root, indiv
}

// encodeRefineInput is decodeRefineInput's inverse for graphs of at most 64
// nodes, used to build the seed corpus.
func encodeRefineInput(l *Labeled, root, indiv int) []byte {
	flags := byte(0)
	if root >= 0 {
		flags |= 1
	}
	if indiv >= 0 {
		flags |= 2
	}
	data := []byte{byte(l.N() - 1), flags, byte(max(root, 0)), byte(max(indiv, 0))}
	for _, lab := range l.Labels {
		data = append(data, lab[0]-'a')
	}
	for _, e := range l.G.Edges() {
		data = append(data, byte(e[0]), byte(e[1]))
	}
	return data
}

// checkPartition requires the workspace's partition to describe colors: k
// cells in colour order, each listing exactly the nodes of its colour.
func checkPartition(t *testing.T, w *CodeWorkspace, colors []int32, k int) {
	t.Helper()
	cells := w.cells[:k+1]
	if cells[0] != 0 || int(cells[k]) != len(colors) {
		t.Fatalf("partition spans [%d, %d), want [0, %d)", cells[0], cells[k], len(colors))
	}
	for c := 0; c < k; c++ {
		if cells[c+1] <= cells[c] {
			t.Fatalf("cell %d is empty", c)
		}
		for _, v := range w.perm[cells[c]:cells[c+1]] {
			if colors[v] != int32(c) {
				t.Fatalf("node %d of cell %d has colour %d", v, c, colors[v])
			}
		}
	}
}

// FuzzRefineMatchesReference pins the cell-local refinement to the radix
// refinement it replaced: from the same graph and root, the initial
// colourings, the refined colourings and their class counts must be equal,
// and again after individualising a vertex of a non-singleton class the way
// the search does. Equal colourings are what keep every code byte-identical.
func FuzzRefineMatchesReference(f *testing.F) {
	ab := []Label{"a", "b"}
	grid := ObliviousViewOf(RandomLabels(Grid(7, 7), ab, 1), 24, 3)
	hub := NewBuilder(64)
	rng := rand.New(rand.NewSource(2))
	for v := 1; v < 64; v++ {
		hub.AddEdge(0, v)
		if u := 1 + rng.Intn(63); u != v {
			hub.AddEdge(u, v)
		}
	}
	hubL := RandomLabels(hub.Build(), []Label{"a", "b", "c"}, 3)
	f.Add(encodeRefineInput(grid.Labeled, grid.Root, 5))
	f.Add(encodeRefineInput(hubL, -1, 7))
	f.Add(encodeRefineInput(hubL, 0, -1))
	f.Add(encodeRefineInput(UniformlyLabeled(Star(40), "a"), 0, 3))
	f.Add(encodeRefineInput(RandomLabels(New(12), []Label{"a", "b", "c"}, 4), -1, 2))
	f.Add(encodeRefineInput(UniformlyLabeled(New(1), "a"), 0, -1))
	f.Fuzz(func(t *testing.T, data []byte) {
		l, root, indiv := decodeRefineInput(data)
		if l == nil {
			return
		}
		n := l.N()
		w := NewCodeWorkspace()
		w.grow(n)
		ref := newRadixRefiner(n, l.G.M())
		got, want := w.cur[:n], make([]int32, n)
		k, wantK := w.initColors(l, root), ref.initColors(l, root, want)
		compare := func(stage string) {
			t.Helper()
			if k != wantK || !slices.Equal(got, want) {
				t.Fatalf("%s: colouring %v with %d classes, reference %v with %d", stage, got, k, want, wantK)
			}
		}
		compare("initial")
		k, wantK = w.refine(l.G, got, k), ref.refine(l.G, want, wantK)
		compare("refined")
		checkPartition(t, w, got, k)
		if indiv < 0 {
			return
		}
		// Individualise the indiv-th member of a non-singleton class.
		var members []int
		for v := range got {
			if w.cells[got[v]+1]-w.cells[got[v]] > 1 {
				members = append(members, v)
			}
		}
		if len(members) == 0 {
			return
		}
		x := members[indiv%len(members)]
		for v := range got {
			got[v]++
			want[v]++
		}
		got[x], want[x] = 0, 0
		k, wantK = w.refine(l.G, got, k+1), ref.refine(l.G, want, wantK+1)
		compare("individualised")
		checkPartition(t, w, got, k)
	})
}
