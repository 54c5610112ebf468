package tree

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestNewLayeredTreeShape(t *testing.T) {
	tests := []struct {
		depth int
		n, m  int
	}{
		{0, 1, 0},
		{1, 3, 3}, // root-child x2 + level-1 path edge
		{2, 7, 9}, // 6 tree edges + 1 + 2 path edges... see below
		{3, 15, 21},
	}
	for _, tc := range tests {
		lt := NewLayeredTree(tc.depth)
		if lt.N() != tc.n {
			t.Errorf("depth %d: n = %d, want %d", tc.depth, lt.N(), tc.n)
		}
		// Edge count: tree edges (n-1) + path edges sum(2^y - 1).
		wantM := tc.n - 1
		for y := 1; y <= tc.depth; y++ {
			wantM += (1 << y) - 1
		}
		if lt.G.M() != wantM {
			t.Errorf("depth %d: m = %d, want %d", tc.depth, lt.G.M(), wantM)
		}
		if !lt.G.IsConnected() {
			t.Errorf("depth %d: not connected", tc.depth)
		}
	}
}

func TestLayeredTreeAdjacency(t *testing.T) {
	lt := NewLayeredTree(3)
	// Node (x=1, y=2) neighbours: parent (0,1), laterals (0,2), (2,2),
	// children (2,3), (3,3).
	v := lt.MustNode(Coord{X: 1, Y: 2})
	expect := []Coord{{X: 0, Y: 1}, {X: 0, Y: 2}, {X: 2, Y: 2}, {X: 2, Y: 3}, {X: 3, Y: 3}}
	if lt.G.Degree(v) != len(expect) {
		t.Fatalf("degree = %d, want %d", lt.G.Degree(v), len(expect))
	}
	for _, c := range expect {
		u := lt.MustNode(c)
		if !lt.G.HasEdge(v, u) {
			t.Errorf("missing edge (1,2)-%+v", c)
		}
	}
	// Root: exactly its two children.
	root := lt.MustNode(Coord{X: 0, Y: 0})
	if lt.G.Degree(root) != 2 {
		t.Errorf("root degree = %d, want 2", lt.G.Degree(root))
	}
}

// CoordLabel must stay byte-identical to the format it replaced, and
// ParseCoordLabel must invert it, across signs and digit counts.
func TestCoordLabelMatchesFormat(t *testing.T) {
	values := []int{0, 1, -1, 7, -9, 10, -10, 42, 99, -100, 12345, -987654, math.MaxInt64, math.MinInt64}
	for _, r := range values {
		for _, x := range values {
			for _, y := range values {
				c := Coord{X: x, Y: y}
				lab := CoordLabel(r, c)
				if want := fmt.Sprintf("lt{r=%d;x=%d;y=%d}", r, x, y); lab != want {
					t.Fatalf("CoordLabel(%d, %+v) = %q, want %q", r, c, lab, want)
				}
				gotR, gotC, err := ParseCoordLabel(lab)
				if err != nil || gotR != r || gotC != c {
					t.Fatalf("ParseCoordLabel(%q) = %d, %+v, %v", lab, gotR, gotC, err)
				}
			}
		}
	}
}

func TestCoordLabelRoundTrip(t *testing.T) {
	lab := CoordLabel(3, Coord{X: 5, Y: 4})
	r, c, err := ParseCoordLabel(lab)
	if err != nil || r != 3 || c.X != 5 || c.Y != 4 {
		t.Fatalf("round trip: r=%d c=%+v err=%v", r, c, err)
	}
	if _, _, err := ParseCoordLabel("garbage"); err == nil {
		t.Error("garbage label parsed")
	}
	p := PivotLabel(7)
	r, ok := IsPivotLabel(p)
	if !ok || r != 7 {
		t.Fatalf("pivot label: r=%d ok=%v", r, ok)
	}
	if _, ok := IsPivotLabel(lab); ok {
		t.Error("coordinate label misread as pivot")
	}
}

func TestSliceNodes(t *testing.T) {
	lt := NewLayeredTree(4)
	s := Slice{RootX: 1, RootY: 1, Depth: 2}
	nodes, err := lt.SliceNodes(s)
	if err != nil {
		t.Fatal(err)
	}
	// Levels 1 (1 node), 2 (2 nodes), 3 (4 nodes) = 7 nodes.
	if len(nodes) != 7 {
		t.Fatalf("slice size = %d, want 7", len(nodes))
	}
	// The induced subgraph must be a layered depth-2 tree.
	sub, _ := lt.G.InducedSubgraph(nodes)
	want := NewLayeredTree(2)
	a := graph.UniformlyLabeled(sub, "")
	b := graph.UniformlyLabeled(want.G, "")
	if !graph.Isomorphic(a, b) {
		t.Error("slice is not a layered depth-2 tree")
	}
	// Out-of-range slices error.
	if _, err := lt.SliceNodes(Slice{RootX: 0, RootY: 3, Depth: 2}); err == nil {
		t.Error("too-deep slice accepted")
	}
	if _, err := lt.SliceNodes(Slice{RootX: 5, RootY: 1, Depth: 1}); err == nil {
		t.Error("x out of level accepted")
	}
}

func TestAllSlices(t *testing.T) {
	lt := NewLayeredTree(3)
	slices := lt.AllSlices(1)
	// y0 in 0..2: 1 + 2 + 4 = 7 slices.
	if len(slices) != 7 {
		t.Fatalf("slices = %d, want 7", len(slices))
	}
	slices = lt.AllSlices(3)
	if len(slices) != 1 {
		t.Fatalf("full-depth slices = %d, want 1", len(slices))
	}
}

func TestBorderNodes(t *testing.T) {
	lt := NewLayeredTree(4)
	// Top slice (root at (0,0), depth 2): border = bottom level only (root
	// has no parent/laterals; middle level spans the whole level).
	nodes, err := lt.BorderNodes(Slice{RootX: 0, RootY: 0, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range nodes {
		if lt.Coords[v].Y != 2 {
			t.Errorf("unexpected border node %+v in top slice", lt.Coords[v])
		}
	}
	if len(nodes) != 4 {
		t.Errorf("top-slice border = %d nodes, want 4 (bottom level)", len(nodes))
	}
	// Interior slice rooted (1,1) depth 2: root border (parent+laterals
	// outside), range-edge columns border, bottom level border (children at
	// level 4? bottom is level 3 < 4 => all bottom nodes border).
	nodes, err = lt.BorderNodes(Slice{RootX: 1, RootY: 1, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	borderSet := make(map[Coord]struct{})
	for _, v := range nodes {
		borderSet[lt.Coords[v]] = struct{}{}
	}
	// Border: the root (parent+lateral outside); (2,2) whose left lateral
	// (1,2) is outside; the whole bottom level (children outside). Note
	// (3,2) is NOT border: x=3 is the level edge, so it has no right lateral
	// anywhere, and its parent and children are inside the slice.
	for _, want := range []Coord{{X: 1, Y: 1}, {X: 2, Y: 2}, {X: 4, Y: 3}, {X: 5, Y: 3}, {X: 6, Y: 3}, {X: 7, Y: 3}} {
		if _, ok := borderSet[want]; !ok {
			t.Errorf("expected border node %+v missing (border: %v)", want, borderSet)
		}
	}
	if len(borderSet) != 6 {
		t.Errorf("border size = %d, want 6", len(borderSet))
	}
	if _, ok := borderSet[Coord{X: 3, Y: 2}]; ok {
		t.Error("(3,2) wrongly classified as border")
	}
}

func TestVerifyLayeredTreeLabels(t *testing.T) {
	lt := NewLayeredTree(3)
	l := lt.Labeled(2)
	depth, err := VerifyLayeredTreeLabels(l, 2)
	if err != nil || depth != 3 {
		t.Fatalf("valid tree rejected: depth=%d err=%v", depth, err)
	}
	// Wrong r.
	if _, err := VerifyLayeredTreeLabels(l, 1); err == nil {
		t.Error("wrong r accepted")
	}
	// Corrupt a label.
	bad := l.Clone()
	bad.Labels[3] = CoordLabel(2, Coord{X: 0, Y: 0})
	if _, err := VerifyLayeredTreeLabels(bad, 2); err == nil {
		t.Error("duplicate coordinate accepted")
	}
	// Remove an edge.
	nodes := make([]int, l.N()-1)
	for i := range nodes {
		nodes[i] = i + 1 // drop the root
	}
	sub, _ := l.InducedSubgraph(nodes)
	if _, err := VerifyLayeredTreeLabels(sub, 2); err == nil {
		t.Error("truncated tree accepted")
	}
	// Extra edge.
	extra := l.Clone()
	extra.G.AddEdge(lt.MustNode(Coord{X: 0, Y: 0}), lt.MustNode(Coord{X: 0, Y: 2}))
	if _, err := VerifyLayeredTreeLabels(extra, 2); err == nil {
		t.Error("extra edge accepted")
	}
}

func TestNewPyramidShape(t *testing.T) {
	p := NewPyramid(2)
	// Levels: 4x4 + 2x2 + 1x1 = 21 nodes.
	if p.N() != 21 {
		t.Fatalf("pyramid n = %d, want 21", p.N())
	}
	if p.BaseSide() != 4 {
		t.Errorf("base side = %d", p.BaseSide())
	}
	if !p.G.IsConnected() {
		t.Error("pyramid disconnected")
	}
	// Apex connects to the 2x2 level (4 children), nothing above.
	if d := p.G.Degree(p.Apex()); d != 4 {
		t.Errorf("apex degree = %d, want 4", d)
	}
	// Base corner (0,0,0): right + down + parent = 3.
	if d := p.G.Degree(p.BaseNode(0, 0)); d != 3 {
		t.Errorf("base corner degree = %d, want 3", d)
	}
	// Distance shrinkage: opposite base corners are 2h apart via the apex
	// rather than 2*(2^h - 1) through the grid.
	far := p.BaseNode(3, 3)
	if d := p.G.Distance(p.BaseNode(0, 0), far); d > 2*p.H {
		t.Errorf("corner distance = %d, want <= %d via the pyramid", d, 2*p.H)
	}
}

func TestPyramidParentStructure(t *testing.T) {
	p := NewPyramid(3)
	// Every non-apex node has exactly one parent: (x/2, y/2, z+1).
	for v, c := range p.Coords3 {
		if c[2] == p.H {
			continue
		}
		parent, ok := p.Node(c[0]/2, c[1]/2, c[2]+1)
		if !ok || !p.G.HasEdge(v, parent) {
			t.Fatalf("node %v missing parent edge", c)
		}
	}
}

func TestVerifyPyramid(t *testing.T) {
	p := NewPyramid(2)
	if err := VerifyPyramid(p.G, p.Coords3, 2); err != nil {
		t.Fatalf("valid pyramid rejected: %v", err)
	}
	// Wrong height.
	if err := VerifyPyramid(p.G, p.Coords3, 3); err == nil {
		t.Error("wrong height accepted")
	}
	// Tampered coordinates.
	coords := append([][3]int(nil), p.Coords3...)
	coords[0], coords[1] = coords[1], coords[0]
	if err := VerifyPyramid(p.G, coords, 2); err == nil {
		t.Error("swapped coordinates accepted")
	}
	// Missing edge.
	broken := graph.New(p.N())
	for _, e := range p.G.Edges()[1:] {
		broken.AddEdge(e[0], e[1])
	}
	if err := VerifyPyramid(broken, p.Coords3, 2); err == nil {
		t.Error("missing edge accepted")
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative tree depth": func() { NewLayeredTree(-1) },
		"huge tree depth":     func() { NewLayeredTree(30) },
		"negative pyramid":    func() { NewPyramid(-1) },
		"huge pyramid":        func() { NewPyramid(20) },
		"missing node":        func() { NewLayeredTree(1).MustNode(Coord{X: 9, Y: 9}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		})
	}
}

func TestLabeledTree(t *testing.T) {
	lt := NewLayeredTree(2)
	l := lt.Labeled(5)
	if l.N() != 7 {
		t.Fatal("wrong size")
	}
	for v, lab := range l.Labels {
		r, c, err := ParseCoordLabel(lab)
		if err != nil || r != 5 || c != lt.Coords[v] {
			t.Fatalf("label mismatch at %d: %q", v, lab)
		}
	}
	if !strings.Contains(l.Labels[0], "r=5") {
		t.Error("label format changed unexpectedly")
	}
}
