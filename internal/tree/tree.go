// Package tree builds the layered trees of the paper's Section 2 (Figure 1)
// and the layered quadtree pyramids of Appendix A (Figure 3).
//
// A layered depth-k tree is a complete binary tree of depth k in which,
// additionally, the nodes of each level are connected by a path in the
// natural (left-to-right) order. A pyramid is a square grid with a stack of
// shrinking quadtree levels attached on top, which makes the grid's global
// structure locally checkable.
//
// Both families have closed-form coordinate systems: node numbering is level
// order, so each level starts at an arithmetic offset (a geometric series in
// the level index) and a coordinate maps to its node id — and back — with
// integer arithmetic alone. All lookups (Node, MustNode, BaseNode, Apex) are
// O(1) and allocation-free; the packages used to carry map-based coordinate
// indexes whose population dominated construction at scale (>1.5s of the
// height-10 pyramid's build against ~30ms for the graph freeze itself).
package tree

import (
	"fmt"
	"strconv"

	"repro/internal/graph"
)

// Coord is the position of a node in a layered tree: level y (0 = root) and
// index x within the level (0 <= x < 2^y).
type Coord struct {
	X, Y int
}

// LayeredTree is a layered depth-k tree together with its coordinate system.
type LayeredTree struct {
	Depth  int
	G      *graph.Graph
	Coords []Coord
}

// NewLayeredTree constructs the layered depth-k tree. Node numbering is
// level order: node for (x, y) is 2^y - 1 + x, so coordinate lookups are
// pure arithmetic and no index structure is built.
func NewLayeredTree(depth int) *LayeredTree {
	if depth < 0 {
		panic("tree: negative depth")
	}
	if depth > 25 {
		panic(fmt.Sprintf("tree: depth %d would allocate 2^%d nodes", depth, depth+1))
	}
	n := (1 << (depth + 1)) - 1
	coords := make([]Coord, n)
	offsets := make([]int32, n+1)
	sum := int32(0)
	for y := 0; y <= depth; y++ {
		width := 1 << y
		base := width - 1
		for x := 0; x < width; x++ {
			coords[base+x] = Coord{X: x, Y: y}
			d := int32(0)
			if y > 0 {
				d++ // parent
			}
			if x > 0 {
				d++ // left level-path neighbour
			}
			if x+1 < width {
				d++ // right level-path neighbour
			}
			if y < depth {
				d += 2 // children
			}
			sum += d
			offsets[base+x+1] = sum
		}
	}
	// Each row is emitted in ascending id order directly from the closed
	// forms: parent < left sibling < right sibling < children.
	g := graph.BuildCSR(offsets, func(nbrs []int32) {
		i := 0
		for y := 0; y <= depth; y++ {
			width := 1 << y
			parentBase := width/2 - 1
			childBase := 2*width - 1
			for x := 0; x < width; x++ {
				v := width - 1 + x
				if y > 0 {
					nbrs[i] = int32(parentBase + x/2)
					i++
				}
				if x > 0 {
					nbrs[i] = int32(v - 1)
					i++
				}
				if x+1 < width {
					nbrs[i] = int32(v + 1)
					i++
				}
				if y < depth {
					nbrs[i] = int32(childBase + 2*x)
					nbrs[i+1] = int32(childBase + 2*x + 1)
					i += 2
				}
			}
		}
	})
	return &LayeredTree{Depth: depth, G: g, Coords: coords}
}

// LevelOffset returns the node id of the first node of level y, the
// geometric series 2^y - 1. It does not check that y is a level of this
// tree; combine with LevelWidth (or use Node) for validated lookups.
func (t *LayeredTree) LevelOffset(y int) int { return (1 << y) - 1 }

// LevelWidth returns the number of nodes on level y, 2^y.
func (t *LayeredTree) LevelWidth(y int) int { return 1 << y }

// Node returns the node index for a coordinate: O(1) arithmetic
// (LevelOffset(c.Y) + c.X), no allocation, ok=false for coordinates outside
// the tree.
func (t *LayeredTree) Node(c Coord) (int, bool) {
	if c.Y < 0 || c.Y > t.Depth || c.X < 0 || c.X >= 1<<c.Y {
		return 0, false
	}
	return (1 << c.Y) - 1 + c.X, true
}

// MustNode is Node for coordinates known to exist.
func (t *LayeredTree) MustNode(c Coord) int {
	v, ok := t.Node(c)
	if !ok {
		panic(fmt.Sprintf("tree: no node at %+v", c))
	}
	return v
}

// N returns the number of nodes.
func (t *LayeredTree) N() int { return t.G.N() }

// CoordLabel encodes the paper's (r, x, y) node label,
// "lt{r=<r>;x=<x>;y=<y>}" in decimal. It is built by appending rather than
// formatting: every node of every layered tree gets one.
func CoordLabel(r int, c Coord) graph.Label {
	b := make([]byte, 0, 32)
	b = append(b, "lt{r="...)
	b = strconv.AppendInt(b, int64(r), 10)
	b = append(b, ";x="...)
	b = strconv.AppendInt(b, int64(c.X), 10)
	b = append(b, ";y="...)
	b = strconv.AppendInt(b, int64(c.Y), 10)
	b = append(b, '}')
	return string(b)
}

// ParseCoordLabel inverts CoordLabel.
func ParseCoordLabel(lab graph.Label) (r int, c Coord, err error) {
	if _, err = fmt.Sscanf(lab, "lt{r=%d;x=%d;y=%d}", &r, &c.X, &c.Y); err != nil {
		return 0, Coord{}, fmt.Errorf("tree: bad coordinate label %q: %w", lab, err)
	}
	return r, c, nil
}

// PivotLabel is the label of the pivot node in the paper's H+ instances.
func PivotLabel(r int) graph.Label { return fmt.Sprintf("pivot{r=%d}", r) }

// IsPivotLabel reports whether a label is a pivot label and extracts r.
func IsPivotLabel(lab graph.Label) (int, bool) {
	var r int
	if _, err := fmt.Sscanf(lab, "pivot{r=%d}", &r); err != nil {
		return 0, false
	}
	return r, true
}

// Labeled returns the layered tree as a labelled graph with (r, x, y)
// coordinate labels — the paper's T_r when depth = R(r).
func (t *LayeredTree) Labeled(r int) *graph.Labeled {
	labels := make([]graph.Label, t.N())
	for v, c := range t.Coords {
		labels[v] = CoordLabel(r, c)
	}
	return graph.NewLabeled(t.G, labels)
}

// Slice describes an aligned depth-d sub-layered-tree of a layered tree: the
// descendant slice of the node at (rootY, rootX) down d levels. These are
// exactly the induced subgraphs of a layered tree whose topology is a
// layered depth-d tree (tree edges force alignment).
type Slice struct {
	RootX, RootY, Depth int
}

// SliceNodes lists the nodes of a slice inside t, in level order.
func (t *LayeredTree) SliceNodes(s Slice) ([]int, error) {
	if s.Depth < 0 || s.RootY < 0 || s.RootY+s.Depth > t.Depth {
		return nil, fmt.Errorf("tree: slice %+v out of depth-%d tree", s, t.Depth)
	}
	if s.RootX < 0 || s.RootX >= 1<<s.RootY {
		return nil, fmt.Errorf("tree: slice root x=%d out of level %d", s.RootX, s.RootY)
	}
	var nodes []int
	for d := 0; d <= s.Depth; d++ {
		y := s.RootY + d
		lo := s.RootX << d
		hi := (s.RootX + 1) << d // exclusive
		for x := lo; x < hi; x++ {
			nodes = append(nodes, t.MustNode(Coord{X: x, Y: y}))
		}
	}
	return nodes, nil
}

// AllSlices enumerates every depth-d slice of t.
func (t *LayeredTree) AllSlices(d int) []Slice {
	var out []Slice
	for y0 := 0; y0+d <= t.Depth; y0++ {
		for x0 := 0; x0 < 1<<y0; x0++ {
			out = append(out, Slice{RootX: x0, RootY: y0, Depth: d})
		}
	}
	return out
}

// BorderNodes returns the nodes of the slice that have a neighbour outside
// the slice (the paper's border nodes, to which the pivot is attached).
func (t *LayeredTree) BorderNodes(s Slice) ([]int, error) {
	nodes, err := t.SliceNodes(s)
	if err != nil {
		return nil, err
	}
	inSlice := make(map[int]struct{}, len(nodes))
	for _, v := range nodes {
		inSlice[v] = struct{}{}
	}
	var border []int
	for _, v := range nodes {
		for _, u := range t.G.Neighbors(v) {
			if _, ok := inSlice[int(u)]; !ok {
				border = append(border, v)
				break
			}
		}
	}
	return border, nil
}

// Pyramid (Appendix A, Figure 3) ------------------------------------------------

// Pyramid is a layered quadtree over a 2^h x 2^h base grid: level z holds a
// 2^(h-z) x 2^(h-z) grid, and each node (x, y, z), z < h, connects to
// (floor(x/2), floor(y/2), z+1). The base level z=0 is the grid itself.
//
// Node numbering is level order, base level first, each level in row-major
// (y, x) order, so coordinate lookups are O(1) arithmetic over the
// precomputed per-level offsets (a geometric series: level z starts at
// (4^(h+1) - 4^(h-z+1)) / 3).
type Pyramid struct {
	H int
	G *graph.Graph
	// Coords3 maps node -> (x, y, z).
	Coords3 [][3]int
	// levelOffset[z] is the node id of the first node of level z; the extra
	// final entry is the total node count, so level z spans
	// levelOffset[z]..levelOffset[z+1].
	levelOffset []int
}

// MaxPyramidHeight is the largest height NewPyramid builds (about 2.2×10^7
// nodes).
const MaxPyramidHeight = 12

// NewPyramid builds the pyramid of height h (base 2^h x 2^h). Construction
// emits every edge from computed node ids directly — no coordinate map is
// built, which is what makes the height-10 (n≈1.4×10^6) pyramid construct
// at graph-freeze speed instead of map-population speed.
func NewPyramid(h int) *Pyramid {
	if h < 0 {
		panic("tree: negative pyramid height")
	}
	if h > MaxPyramidHeight {
		panic(fmt.Sprintf("tree: pyramid height %d too large", h))
	}
	levelOffset := make([]int, h+2)
	for z := 0; z <= h; z++ {
		side := 1 << (h - z)
		levelOffset[z+1] = levelOffset[z] + side*side
	}
	total := levelOffset[h+1]
	coords := make([][3]int, total)
	offsets := make([]int32, total+1)
	sum := int32(0)
	for z := 0; z <= h; z++ {
		side := 1 << (h - z)
		v := levelOffset[z]
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				coords[v] = [3]int{x, y, z}
				d := int32(0)
				if z > 0 {
					d += 4 // quadtree children always exist below
				}
				if y > 0 {
					d++
				}
				if x > 0 {
					d++
				}
				if x+1 < side {
					d++
				}
				if y+1 < side {
					d++
				}
				if z < h {
					d++ // quadtree parent
				}
				sum += d
				offsets[v+1] = sum
				v++
			}
		}
	}
	// Each row is emitted in ascending id order directly from the closed
	// forms: the four quadtree children on the level below, then the
	// same-level grid neighbours, then the quadtree parent above.
	g := graph.BuildCSR(offsets, func(nbrs []int32) {
		i := 0
		for z := 0; z <= h; z++ {
			side := 1 << (h - z)
			off := levelOffset[z]
			sideDown := side << 1
			sideUp := side >> 1
			for y := 0; y < side; y++ {
				v := off + y*side
				childRow := 0
				if z > 0 {
					childRow = levelOffset[z-1] + 2*y*sideDown
				}
				parentRow := 0
				if z < h {
					parentRow = levelOffset[z+1] + (y/2)*sideUp
				}
				for x := 0; x < side; x++ {
					if z > 0 {
						child := int32(childRow + 2*x)
						nbrs[i] = child
						nbrs[i+1] = child + 1
						nbrs[i+2] = child + int32(sideDown)
						nbrs[i+3] = child + int32(sideDown) + 1
						i += 4
					}
					if y > 0 {
						nbrs[i] = int32(v - side)
						i++
					}
					if x > 0 {
						nbrs[i] = int32(v - 1)
						i++
					}
					if x+1 < side {
						nbrs[i] = int32(v + 1)
						i++
					}
					if y+1 < side {
						nbrs[i] = int32(v + side)
						i++
					}
					if z < h {
						nbrs[i] = int32(parentRow + x/2)
						i++
					}
					v++
				}
			}
		}
	})
	return &Pyramid{H: h, G: g, Coords3: coords, levelOffset: levelOffset}
}

// LevelOffset returns the node id of the first node of level z (0 <= z <=
// h; the base grid is level 0). The offsets are the partial sums of the
// geometric series 4^h + 4^(h-1) + ... precomputed at construction.
func (p *Pyramid) LevelOffset(z int) int { return p.levelOffset[z] }

// LevelSide returns the side length 2^(h-z) of the level-z grid. It does
// not check that z is a level of this pyramid; combine with LevelOffset (or
// use Node) for validated lookups.
func (p *Pyramid) LevelSide(z int) int { return 1 << (p.H - z) }

// Node returns the node at pyramid coordinate (x, y, z): O(1) arithmetic
// (LevelOffset(z) + y*LevelSide(z) + x), no allocation, ok=false for
// coordinates outside the pyramid.
func (p *Pyramid) Node(x, y, z int) (int, bool) {
	if z < 0 || z > p.H {
		return 0, false
	}
	side := 1 << (p.H - z)
	if x < 0 || x >= side || y < 0 || y >= side {
		return 0, false
	}
	return p.levelOffset[z] + y*side + x, true
}

// BaseNode returns the base-grid node at (x, y, 0).
func (p *Pyramid) BaseNode(x, y int) int {
	v, ok := p.Node(x, y, 0)
	if !ok {
		panic(fmt.Sprintf("tree: base node (%d,%d) out of range", x, y))
	}
	return v
}

// Apex returns the single top node (the last node, by level-order
// numbering).
func (p *Pyramid) Apex() int {
	return p.levelOffset[p.H]
}

// N returns the number of nodes.
func (p *Pyramid) N() int { return p.G.N() }

// BaseSide returns the side length 2^h of the base grid.
func (p *Pyramid) BaseSide() int { return 1 << p.H }

// Verification --------------------------------------------------------------------

// VerifyLayeredTreeLabels checks globally that a labelled graph is exactly a
// layered depth-k tree with correct (r, x, y) coordinate labels for the given
// r (the global version of the local structure checks in the paper's proof
// of P' ∈ LD*). It returns the depth on success.
//
// The check uses the arithmetic coordinate formulas throughout: claimed
// coordinates are mapped to canonical level-order ids, bijectivity is a
// single slice pass, and no per-call coordinate map is built.
func VerifyLayeredTreeLabels(l *graph.Labeled, r int) (int, error) {
	n := l.N()
	if n == 0 {
		return 0, fmt.Errorf("tree: empty graph")
	}
	coords := make([]Coord, n)
	maxY := 0
	for v, lab := range l.Labels {
		rr, c, err := ParseCoordLabel(lab)
		if err != nil {
			return 0, err
		}
		if rr != r {
			return 0, fmt.Errorf("tree: node %d carries r=%d, want %d", v, rr, r)
		}
		if c.Y < 0 || c.X < 0 || c.X >= 1<<c.Y {
			return 0, fmt.Errorf("tree: node %d has invalid coordinates %+v", v, c)
		}
		coords[v] = c
		if c.Y > maxY {
			maxY = c.Y
		}
	}
	// Reject size mismatches before constructing the reference tree: a
	// depth-maxY layered tree has exactly 2^(maxY+1)-1 nodes.
	if wantN := (1 << (maxY + 1)) - 1; n != wantN {
		return 0, fmt.Errorf("tree: %d nodes, want %d for depth %d", n, wantN, maxY)
	}
	want := NewLayeredTree(maxY)
	// Coordinates must be a bijection onto the canonical id range: owner maps
	// each canonical id 2^y-1+x to the node claiming it. Counting makes a
	// duplicate-free assignment of n coordinates onto n ids surjective.
	owner := make([]int32, n)
	for i := range owner {
		owner[i] = -1
	}
	for v, c := range coords {
		id := want.MustNode(c)
		if owner[id] != -1 {
			return 0, fmt.Errorf("tree: duplicate coordinate %+v", c)
		}
		owner[id] = int32(v)
	}
	// Edges must match the reference tree exactly.
	for v, c := range coords {
		wantV := want.MustNode(c)
		for _, wu := range want.G.Neighbors(wantV) {
			u := owner[wu]
			if !l.G.HasEdge(v, int(u)) {
				return 0, fmt.Errorf("tree: missing edge %+v-%+v", c, want.Coords[wu])
			}
		}
		if l.G.Degree(v) != want.G.Degree(wantV) {
			return 0, fmt.Errorf("tree: extra edges at %+v", c)
		}
	}
	return maxY, nil
}

// VerifyPyramid checks globally that a graph is the pyramid of height h
// given a claimed coordinate assignment (used by the Appendix-A checkability
// experiments; the local variant is in package halting).
//
// Claimed coordinates are validated and mapped to canonical ids with the
// arithmetic formulas — the per-call coordinate map the check used to build
// is gone.
func VerifyPyramid(g *graph.Graph, coords [][3]int, h int) error {
	want := NewPyramid(h)
	if g.N() != want.N() {
		return fmt.Errorf("tree: %d nodes, want %d", g.N(), want.N())
	}
	if len(coords) != want.N() {
		return fmt.Errorf("tree: %d coordinates, want %d", len(coords), want.N())
	}
	// owner maps each canonical id to the node claiming its coordinate; the
	// counting argument of VerifyLayeredTreeLabels applies unchanged.
	owner := make([]int32, want.N())
	for i := range owner {
		owner[i] = -1
	}
	for v, c := range coords {
		id, ok := want.Node(c[0], c[1], c[2])
		if !ok {
			return fmt.Errorf("tree: invalid pyramid coordinate %v", c)
		}
		if owner[id] != -1 {
			return fmt.Errorf("tree: duplicate pyramid coordinate %v", c)
		}
		owner[id] = int32(v)
	}
	for v, c := range coords {
		wantV, _ := want.Node(c[0], c[1], c[2])
		if g.Degree(v) != want.G.Degree(wantV) {
			return fmt.Errorf("tree: degree mismatch at %v", c)
		}
		for _, wu := range want.G.Neighbors(wantV) {
			u := owner[wu]
			if !g.HasEdge(v, int(u)) {
				return fmt.Errorf("tree: missing edge %v-%v", c, want.Coords3[wu])
			}
		}
	}
	return nil
}
