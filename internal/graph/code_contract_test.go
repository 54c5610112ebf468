package graph_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/halting"
	"repro/internal/tree"
	"repro/internal/turing"
)

// goldenCodeDigest is the SHA-256 of every code goldenCodeCorpus emits, each
// length-prefixed. Persisted verdict logs key their records by these bytes,
// so a change to the refinement, the search or an encoder that renumbers
// colours — even consistently, keeping the equivalence the codes induce —
// orphans every stored verdict. Such a change must fail here, not silently
// re-key the logs.
const (
	goldenCodeDigest = "b4cacfd42a78995d9ae0f52899edd24922fbe8a1aee72f5b34de1fb7f86abd04"
	goldenCodeCount  = 14328
)

// goldenCodeCorpus feeds emit the RootedCode, GraphCode and RefinementCode
// bytes of a seeded corpus: small random labelled graphs, connected or not,
// at every root and unrooted; small uniformly labelled symmetric graphs;
// dense random graphs; every view of radius at most 3 of random two-letter
// grid, complete-binary-tree, cycle and pyramid hosts; and the refinement
// codes of the G(M, r) and window-graph pivot balls at radius 1 and 2.
// Inputs whose search branches heavily without twin pruning (large uniform
// stars, sparse random hosts at radius 2 and up) stay out, so the corpus
// codes in well under a second with or without it.
func goldenCodeCorpus(t *testing.T, emit func(graph.Code)) {
	w := graph.NewCodeWorkspace()
	ab := []graph.Label{"a", "b"}
	rng := rand.New(rand.NewSource(2014))
	for i := 0; i < 1200; i++ {
		n := 1 + rng.Intn(7)
		var g *graph.Graph
		if i%2 == 0 {
			g = graph.Random(n, rng.Float64(), rng.Int63())
		} else {
			b := graph.NewBuilder(n)
			p := rng.Float64()
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					if rng.Float64() < p {
						b.AddEdge(u, v)
					}
				}
			}
			g = b.Build()
		}
		l := graph.RandomLabels(g, ab, rng.Int63())
		emit(w.GraphCode(l))
		for root := 0; root < n; root++ {
			emit(w.RootedCode(l, root))
			emit(w.RefinementCode(l, root))
		}
	}
	// Uniformly labelled symmetric graphs, each also renumbered: their
	// searches branch over twins (the star's leaves, the complete graphs)
	// and over non-twins (the cycle, the grid, the torus, and the unions of
	// two cycles, whose nodes refinement cannot tell apart although the two
	// cycles' nodes are not interchangeable).
	k33 := graph.NewBuilder(6)
	for u := 0; u < 3; u++ {
		for v := 3; v < 6; v++ {
			k33.AddEdge(u, v)
		}
	}
	cycles := func(a, b int) *graph.Graph {
		u := graph.NewBuilder(a + b)
		u.AddGraphAt(graph.Cycle(a), 0)
		u.AddGraphAt(graph.Cycle(b), a)
		return u.Build()
	}
	symmetric := []*graph.Graph{
		graph.Star(8), graph.Complete(6), k33.Build(), graph.Cycle(8), graph.Grid(3, 3), graph.Torus(3, 3),
		cycles(3, 4), cycles(4, 3), cycles(3, 5),
	}
	for _, g := range symmetric {
		u := graph.UniformlyLabeled(g, "u")
		for _, l := range []*graph.Labeled{u, u.Relabel(rng.Perm(u.N()))} {
			emit(w.GraphCode(l))
			for root := 0; root < l.N(); root++ {
				emit(w.RootedCode(l, root))
				emit(w.RefinementCode(l, root))
			}
		}
	}
	// Dense random graphs: degrees of ten and more take refinement's
	// long-signature paths.
	for i := 0; i < 20; i++ {
		n := 30 + rng.Intn(11)
		l := graph.RandomLabels(graph.Random(n, 0.3+0.5*rng.Float64(), rng.Int63()), ab, rng.Int63())
		emit(w.GraphCode(l))
		for root := 0; root < n; root += 7 {
			emit(w.RootedCode(l, root))
			emit(w.RefinementCode(l, root))
		}
	}

	hosts := []*graph.Labeled{
		graph.RandomLabels(graph.Grid(9, 9), ab, 1),
		graph.RandomLabels(graph.CompleteBinaryTree(5), ab, 2),
		graph.RandomLabels(graph.Cycle(30), ab, 3),
		graph.RandomLabels(tree.NewPyramid(3).G, ab, 4),
	}
	for _, host := range hosts {
		x := graph.NewViewExtractor(host)
		for radius := 0; radius <= 3; radius++ {
			for v := 0; v < host.N(); v++ {
				view := x.At(v, radius)
				emit(view.CanonCode())
				emit(view.RefinementCode())
				emit(w.GraphCode(view.Labeled))
			}
		}
	}

	for _, m := range turing.Library() {
		p := halting.Params{Machine: m, R: 1, MaxSteps: 200, FragmentLimit: 40}
		var balls []*halting.Assembly
		if asm, err := p.BuildG(); err == nil {
			balls = append(balls, asm)
		}
		asm, err := p.BuildWindowG()
		if err != nil {
			t.Fatal(err)
		}
		balls = append(balls, asm)
		for _, asm := range balls {
			for radius := 1; radius <= 2; radius++ {
				emit(graph.ObliviousViewOf(asm.Labeled, asm.Pivot, radius).RefinementCode())
			}
		}
	}
}

// TestCodeBytesGolden pins the exact code bytes, not only the equivalence
// they induce: the digest of the corpus must match the recorded one.
func TestCodeBytesGolden(t *testing.T) {
	h := sha256.New()
	count := 0
	var n [binary.MaxVarintLen64]byte
	goldenCodeCorpus(t, func(c graph.Code) {
		if c.Fingerprint != graph.Fingerprint(c.Bytes) {
			t.Fatalf("code %d: fingerprint does not match its bytes", count)
		}
		h.Write(n[:binary.PutUvarint(n[:], uint64(len(c.Bytes)))])
		h.Write(c.Bytes)
		count++
	})
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenCodeDigest || count != goldenCodeCount {
		t.Fatalf("corpus of %d codes has digest %s, want %d codes with digest %s",
			count, got, goldenCodeCount, goldenCodeDigest)
	}
}

// TestCodeAllocationFree pins CodeWorkspace's promise: once a workspace has
// coded a set of views, coding them again allocates nothing. The views come
// from extractors, as in the engine, and cover the generic tier (two-letter
// grid views at radius 3), the tree and cycle fast paths, a search that
// branches over twins (the star's hub view) and a pivot ball through
// RefinementCode.
func TestCodeAllocationFree(t *testing.T) {
	ab := []graph.Label{"a", "b"}
	asm, err := halting.Params{Machine: turing.Library()[0], R: 1, MaxSteps: 200, FragmentLimit: 40}.BuildWindowG()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		host   *graph.Labeled
		radius int
		nodes  []int // nil: every node
		refine bool
	}{
		{"grid", graph.RandomLabels(graph.Grid(12, 12), ab, 5), 3, nil, false},
		{"tree", graph.RandomLabels(graph.CompleteBinaryTree(6), ab, 6), 3, nil, false},
		{"cycle", graph.RandomLabels(graph.Cycle(64), ab, 7), 8, nil, false},
		{"star", graph.UniformlyLabeled(graph.Star(8), "s"), 1, []int{0, 1}, false},
		{"pivot ball", asm.Labeled, 2, []int{asm.Pivot}, true},
	}
	for _, tc := range cases {
		x := graph.NewViewExtractor(tc.host)
		nodes := tc.nodes
		if nodes == nil {
			for v := 0; v < tc.host.N(); v++ {
				nodes = append(nodes, v)
			}
		}
		pass := func() {
			for _, v := range nodes {
				view := x.At(v, tc.radius)
				if tc.refine {
					view.RefinementCode()
				} else {
					view.CanonCode()
				}
			}
		}
		pass()
		if allocs := testing.AllocsPerRun(3, pass); allocs != 0 {
			t.Errorf("%s: %v allocations per pass over warm views, want 0", tc.name, allocs)
		}
	}
}

// TestRefinementCodeSizesItsCode: a pivot ball's refinement code copies
// the labels of hundreds of classes, so RefinementCode sizes the code and its
// edge-pair scratch before it writes them. Grown append by append, they were
// reallocated dozens of times, several times the code's length in all. On
// workspaces whose per-node buffers Prewarm has sized, a cold call allocates
// the two once each.
func TestRefinementCodeSizesItsCode(t *testing.T) {
	asm, err := halting.Params{Machine: turing.Library()[0], R: 1, MaxSteps: 200, FragmentLimit: 40}.BuildWindowG()
	if err != nil {
		t.Fatal(err)
	}
	view := graph.ObliviousViewOf(asm.Labeled, asm.Pivot, 1)
	// One cold workspace for AllocsPerRun's warm-up call and each of its runs.
	ws := make([]*graph.CodeWorkspace, 4)
	for i := range ws {
		ws[i] = graph.NewCodeWorkspace()
		ws[i].Prewarm(view.N(), view.G.M())
	}
	next := 0
	allocs := testing.AllocsPerRun(len(ws)-1, func() {
		ws[next].RefinementCode(view.Labeled, view.Root)
		next++
	})
	if allocs > 2 {
		t.Fatalf("cold RefinementCode of a %d-node pivot ball: %v allocations, want at most 2", view.N(), allocs)
	}
}

// TestTwinPruningCodesLargeStar: the uniformly labelled 64-node star rooted
// at its hub has 63 interchangeable leaves. Twin pruning explores one leaf
// per search depth, so the code takes well under a millisecond (ten under
// the race detector); without it the search visits 63! leaves. The coding runs on its own goroutine so a
// regression fails after the deadline instead of hanging the test binary.
func TestTwinPruningCodesLargeStar(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Star(64), "s")
	best := make(chan time.Duration, 1)
	go func() {
		w := graph.NewCodeWorkspace()
		w.RootedCode(l, 0)
		fastest := time.Duration(1<<63 - 1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			w.RootedCode(l, 0)
			fastest = min(fastest, time.Since(start))
		}
		best <- fastest
	}()
	bound := time.Millisecond
	if raceEnabled {
		bound *= 10
	}
	select {
	case d := <-best:
		if d > bound {
			t.Fatalf("64-node star coded in %v at best, want under %v", d, bound)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("64-node star not coded within 10s")
	}
	// The leaves are interchangeable, so every relabelling codes the same.
	w := graph.NewCodeWorkspace()
	want := w.RootedCode(l, 0).Clone()
	perm := rand.New(rand.NewSource(1)).Perm(64)
	if got := w.RootedCode(l.Relabel(perm), perm[0]); !got.Equal(want) {
		t.Fatal("relabelled star codes differently")
	}
}
