package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// checkCSRInvariants asserts the representation invariants every frozen
// graph must satisfy: monotone offsets, strictly ascending (hence
// duplicate-free) rows, symmetry, no self-loops, and a consistent cached
// edge count.
func checkCSRInvariants(t *testing.T, g *Graph) {
	t.Helper()
	n := g.N()
	half := 0
	for v := 0; v < n; v++ {
		row := g.Neighbors(v)
		half += len(row)
		for i, u := range row {
			if i > 0 && row[i-1] >= u {
				t.Fatalf("row %d not strictly ascending: %v", v, row)
			}
			if int(u) == v {
				t.Fatalf("self-loop at %d", v)
			}
			if !g.HasEdge(int(u), v) {
				t.Fatalf("edge {%d,%d} not symmetric", v, u)
			}
		}
	}
	if half != 2*g.M() {
		t.Fatalf("cached M = %d but rows hold %d half-edges", g.M(), half)
	}
}

// rebuildViaAddEdge replays a graph's edge set through the legacy incremental
// path (New + AddEdge) in shuffled order with duplicates and reversed pairs
// mixed in — the differential reference for Builder-built CSR graphs.
func rebuildViaAddEdge(t *testing.T, g *Graph, seed int64) *Graph {
	t.Helper()
	edges := g.Edges()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	h := New(g.N())
	for i, e := range edges {
		u, v := e[0], e[1]
		if i%2 == 1 {
			u, v = v, u // reversed pair
		}
		h.AddEdge(u, v)
		if i%3 == 0 {
			h.AddEdge(v, u) // duplicate, other orientation
		}
	}
	return h
}

// TestBuilderMatchesAddEdgePath pins Builder-built CSR graphs against the
// legacy AddEdge path across every generator family.
func TestBuilderMatchesAddEdgePath(t *testing.T) {
	families := map[string]*Graph{
		"path":     Path(17),
		"cycle":    Cycle(12),
		"grid":     Grid(5, 7),
		"torus":    Torus(4, 5),
		"tree":     CompleteBinaryTree(4),
		"star":     Star(9),
		"complete": Complete(8),
		"random":   Random(40, 0.15, 7),
	}
	for name, g := range families {
		t.Run(name, func(t *testing.T) {
			checkCSRInvariants(t, g)
			h := rebuildViaAddEdge(t, g, 99)
			if !g.Equal(h) {
				t.Fatalf("%s: builder CSR differs from AddEdge-built graph", name)
			}
			checkCSRInvariants(t, h)
		})
	}
}

// TestBuilderRandomEdgeLists cross-checks Builder against the incremental
// path on arbitrary random edge multisets (with duplicates and reversals),
// not just generator output.
func TestBuilderRandomEdgeLists(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(20)
		mTry := rng.Intn(3 * n)
		b := NewBuilder(n)
		h := New(n)
		for i := 0; i < mTry; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			b.AddEdge(u, v)
			h.AddEdge(u, v)
			if rng.Intn(2) == 0 {
				b.AddEdge(v, u) // reversed duplicate
			}
		}
		g := b.Build()
		if !g.Equal(h) {
			t.Fatalf("trial %d: builder %v != incremental %v", trial, g.Edges(), h.Edges())
		}
		checkCSRInvariants(t, g)
	}
}

func TestBuilderEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty build: n=%d m=%d", g.N(), g.M())
	}
	if !g.Equal(New(0)) {
		t.Fatal("empty build != New(0)")
	}
	var zero Graph
	if zero.N() != 0 || zero.M() != 0 {
		t.Fatalf("zero value: n=%d m=%d", zero.N(), zero.M())
	}
	// The zero value is the empty graph and must compare as such in every
	// direction without touching its nil offsets array.
	if !zero.Equal(New(0)) || !New(0).Equal(&zero) || !zero.Equal(&Graph{}) {
		t.Fatal("zero-value graph not Equal to the empty graph")
	}
	if zero.Equal(New(1)) {
		t.Fatal("zero-value graph Equal to a 1-node graph")
	}
}

func TestBuilderIsolatedTrailingNodes(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1) // nodes 2..5 stay isolated
	g := b.Build()
	if g.N() != 6 || g.M() != 1 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	for v := 2; v < 6; v++ {
		if g.Degree(v) != 0 {
			t.Fatalf("node %d not isolated", v)
		}
	}
	checkCSRInvariants(t, g)
}

func TestBuilderDuplicateAndReversedPairs(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 1)
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2 after dedup", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("edges missing after dedup")
	}
	checkCSRInvariants(t, g)
}

func TestBuilderAddNodeGrowth(t *testing.T) {
	b := NewBuilder(1)
	v := b.AddNode()
	if v != 1 || b.N() != 2 {
		t.Fatalf("AddNode returned %d, n=%d", v, b.N())
	}
	b.AddEdge(0, v)
	g := b.Build()
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
}

func TestBuilderSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	NewBuilder(2).AddEdge(1, 1)
}

func TestBuilderOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range endpoint")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestBuilderReusableAfterBuild(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g1 := b.Build()
	b.AddEdge(1, 2)
	g2 := b.Build()
	if g1.M() != 1 {
		t.Fatalf("first build mutated: m=%d", g1.M())
	}
	if g2.M() != 2 || !g2.HasEdge(0, 1) || !g2.HasEdge(1, 2) {
		t.Fatalf("second build wrong: %v", g2.Edges())
	}
}

func TestBuilderAddGraphAt(t *testing.T) {
	c := Cycle(4)
	b := NewBuilder(9)
	b.AddGraphAt(c, 0)
	b.AddGraphAt(c, 4)
	b.AddEdge(8, 0)
	g := b.Build()
	if g.M() != 2*c.M()+1 {
		t.Fatalf("M = %d, want %d", g.M(), 2*c.M()+1)
	}
	sub, _ := g.InducedSubgraph([]int{4, 5, 6, 7})
	if !sub.Equal(c) {
		t.Fatal("shifted component does not match original")
	}
	checkCSRInvariants(t, g)
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if !g.Equal(Path(4)) {
		t.Fatalf("FromEdges != Path(4): %v", g.Edges())
	}
}

// TestRandomSkipSamplingStatistics pins the geometric-skip Random generator:
// connectivity and determinism are covered elsewhere; here the non-tree edge
// count must track the binomial expectation p·(C(n,2)-(n-1)) within a loose
// band, confirming the skip walk visits each pair with probability p.
func TestRandomSkipSamplingStatistics(t *testing.T) {
	n, p := 400, 0.05
	pairs := n * (n - 1) / 2
	expected := float64(n-1) + p*float64(pairs-(n-1))
	total := 0.0
	const runs = 20
	for seed := int64(0); seed < runs; seed++ {
		total += float64(Random(n, p, seed).M())
	}
	mean := total / runs
	if mean < 0.9*expected || mean > 1.1*expected {
		t.Fatalf("mean edge count %.1f, want within 10%% of %.1f", mean, expected)
	}
}

func TestRandomExtremeProbabilities(t *testing.T) {
	if g := Random(30, 0, 3); g.M() != 29 || !g.IsTree() {
		t.Fatalf("p=0 should yield a spanning tree, got m=%d", g.M())
	}
	if g := Random(12, 1, 3); g.M() != 12*11/2 {
		t.Fatalf("p=1 should yield the complete graph, got m=%d", g.M())
	}
}

// malformedCSR is every way a caller-built CSR can break the representation
// invariant: each must panic in BuildCSR and in CSRBinder.Bind alike.
var malformedCSR = []struct {
	name      string
	offsets   []int32
	neighbors []int32
}{
	{"no offsets", []int32{}, nil},
	{"offsets start above 0", []int32{1, 1}, []int32{0}},
	{"offsets decrease", []int32{0, 2, 1, 2}, []int32{1, 2}},
	{"row descending", []int32{0, 2, 3, 4}, []int32{2, 1, 0, 0}},
	{"duplicate entry", []int32{0, 2, 3}, []int32{1, 1, 0}},
	{"neighbour at n", []int32{0, 1, 2}, []int32{2, 0}},
	{"negative neighbour", []int32{0, 1, 2}, []int32{-1, 0}},
	{"self-loop", []int32{0, 1, 2}, []int32{0, 1}},
	{"no mirror half", []int32{0, 1, 1}, []int32{1}},
	{"mirror half missing below", []int32{0, 0, 1}, []int32{0}},
	{"mirror half elsewhere", []int32{0, 1, 2, 3}, []int32{1, 2, 0}},
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	f()
}

// TestBuildCSRAndBindRejectMalformed feeds every malformed CSR to BuildCSR
// and to Bind, on a fresh binder and on one whose cursor a larger valid
// graph left dirty, and checks that a failed Bind leaves its graph as it
// was.
func TestBuildCSRAndBindRejectMalformed(t *testing.T) {
	var warm CSRBinder
	var big Graph
	warm.Bind(&big, []int32{0, 1, 3, 5, 6}, []int32{1, 0, 2, 1, 3, 2}) // a path on 4 nodes
	for _, tc := range malformedCSR {
		mustPanic(t, "BuildCSR "+tc.name, func() {
			BuildCSR(slices.Clone(tc.offsets), func(dst []int32) { copy(dst, tc.neighbors) })
		})
		for _, b := range []*CSRBinder{{}, &warm} {
			g := *Cycle(3)
			mustPanic(t, "Bind "+tc.name, func() { b.Bind(&g, tc.offsets, tc.neighbors) })
			if !g.Equal(Cycle(3)) || g.Generation() != 0 {
				t.Errorf("Bind %s: a failed bind changed its graph", tc.name)
			}
		}
	}
	// Bind alone also checks the neighbour array's length against offsets.
	for _, neighbors := range [][]int32{{1}, {1, 0, 0}} {
		var g Graph
		mustPanic(t, "Bind with a mislengthed neighbour array", func() {
			new(CSRBinder).Bind(&g, []int32{0, 1, 2}, neighbors)
		})
	}
}

// TestBindInPlace checks that Bind makes a graph equal to BuildCSR's on the
// same arrays, aliasing them, that each bind advances the generation, and
// that rebinding reuses the cursor without allocating.
func TestBindInPlace(t *testing.T) {
	var b CSRBinder
	var g Graph
	for i, h := range []*Graph{Cycle(5), Grid(3, 4), Path(2), New(0), New(3), Random(40, 0.2, 3)} {
		offsets := append([]int32(nil), h.offsets...)
		neighbors := append([]int32(nil), h.neighbors...)
		if len(offsets) == 0 {
			offsets = []int32{0}
		}
		b.Bind(&g, offsets, neighbors)
		checkCSRInvariants(t, &g)
		want := BuildCSR(slices.Clone(offsets), func(dst []int32) { copy(dst, neighbors) })
		if !g.Equal(want) || !g.Equal(h) || g.M() != h.M() {
			t.Errorf("graph %d: bound graph differs from BuildCSR's", i)
		}
		if g.Generation() != uint64(i+1) {
			t.Errorf("graph %d: generation %d after %d binds", i, g.Generation(), i+1)
		}
		if len(neighbors) > 0 && &g.neighbors[0] != &neighbors[0] {
			t.Errorf("graph %d: the bound graph copied its neighbour array", i)
		}
	}
	offsets, neighbors := append([]int32(nil), Cycle(40).offsets...), append([]int32(nil), Cycle(40).neighbors...)
	if allocs := testing.AllocsPerRun(10, func() { b.Bind(&g, offsets, neighbors) }); allocs != 0 {
		t.Errorf("rebinding allocates %.0f times, want 0", allocs)
	}
}
