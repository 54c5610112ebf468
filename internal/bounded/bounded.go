// Package bounded implements Section 2 of the paper: the separation
// LD* != LD under bounded identifiers (B, ¬C).
//
// The construction: T_r is a layered tree of depth R(r) = f(2^(r+1)+1),
// every node labelled (r, x, y). "Small" instances H+ are induced depth-r
// sub-layered-trees H of T_r (aligned slices) augmented with a pivot node
// adjacent to all border nodes of H. The properties are
//
//	P  = ∪_r { H+ : H ≤_r T_r }          (small instances)
//	P' = P ∪ { T_r : r ≥ 0 }             (small or large instances)
//
// P' is decidable Id-obliviously (structure checks); P is decidable with
// identifiers (a node with identifier ≥ R(r) witnesses a large instance and
// rejects) but not Id-obliviously (the t-views of T_r are covered by views of
// small instances — measured, with the known boundary caveat, by experiment
// E5).
//
// Reproduction notes (documented deviations from the paper's informal text):
//   - The bound f must be strictly increasing; the "+1" slack in
//     R(r) = f(2^(r+1)+1) then guarantees every identifier of a small
//     instance is < R(r) while T_r always contains one ≥ R(r).
//   - The cycle promise problem uses n = f(r)+1 (not f(r)) for no-instances:
//     with exactly f(r) nodes an adversary can assign identifiers 0..f(r)-1
//     and no node can prove n != r. The +1 makes the pigeonhole argument
//     airtight.
//   - At the bottom boundary of T_r, range-edge nodes of the deepest slices
//     are pivot-adjacent in every small instance containing them, so their
//     T_r-views are not perfectly covered; E5 measures and reports this
//     (interior coverage → 1).
package bounded

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/ids"
	"repro/internal/local"
	"repro/internal/tree"
)

// Params fixes the construction: the locality parameter r and the identifier
// bound f (strictly increasing).
type Params struct {
	R     int // the paper's r
	Bound ids.Bound
}

// BigR computes R(r) = f(2^(r+1) + 1).
func (p Params) BigR() int {
	return p.Bound.F((1 << (p.R + 1)) + 1)
}

// Tree returns the underlying layered tree of depth R(r) with its coordinate
// system.
func (p Params) Tree() *tree.LayeredTree {
	return tree.NewLayeredTree(p.BigR())
}

// LargeInstance builds the labelled graph T_r.
func (p Params) LargeInstance() *graph.Labeled {
	return p.Tree().Labeled(p.R)
}

// SmallInstance builds H+ for the given slice of T_r: the induced sub-tree
// plus a pivot node adjacent to all border nodes. The pivot is the last node.
func (p Params) SmallInstance(t *tree.LayeredTree, s tree.Slice) (*graph.Labeled, error) {
	if s.Depth != p.R {
		return nil, fmt.Errorf("bounded: slice depth %d, want r=%d", s.Depth, p.R)
	}
	nodes, err := t.SliceNodes(s)
	if err != nil {
		return nil, err
	}
	border, err := t.BorderNodes(s)
	if err != nil {
		return nil, err
	}
	labeledTree := t.Labeled(p.R)
	sub, orig := labeledTree.InducedSubgraph(nodes)
	// Append the pivot.
	nb := graph.NewBuilderHint(sub.G.N(), sub.G.M()+len(border))
	nb.AddGraphAt(sub.G, 0)
	pivot := nb.AddNode()
	pos := make(map[int]int, len(orig))
	for i, v := range orig {
		pos[v] = i
	}
	for _, b := range border {
		nb.AddEdge(pivot, pos[b])
	}
	labels := append(append([]graph.Label(nil), sub.Labels...), tree.PivotLabel(p.R))
	return graph.NewLabeled(nb.Build(), labels), nil
}

// AllSmallInstances builds every H+ in H_r.
func (p Params) AllSmallInstances() ([]*graph.Labeled, error) {
	return p.AllSmallInstancesOf(p.Tree())
}

// AllSmallInstancesOf builds every H+ over an arbitrary-depth layered tree.
// With t = p.Tree() this is exactly H_r; other depths decouple the coverage
// experiments from the (infeasibly deep) R(r) and are labelled as such in
// reports.
func (p Params) AllSmallInstancesOf(t *tree.LayeredTree) ([]*graph.Labeled, error) {
	slices := t.AllSlices(p.R)
	out := make([]*graph.Labeled, 0, len(slices))
	for _, s := range slices {
		h, err := p.SmallInstance(t, s)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}

// Membership ---------------------------------------------------------------------

// VerifySmall checks globally whether l is exactly some H+ of the
// parameters, returning the witnessing slice.
func (p Params) VerifySmall(l *graph.Labeled) (tree.Slice, error) {
	// Locate the unique pivot.
	pivot := -1
	for v, lab := range l.Labels {
		if r, ok := tree.IsPivotLabel(lab); ok {
			if r != p.R {
				return tree.Slice{}, fmt.Errorf("bounded: pivot carries r=%d, want %d", r, p.R)
			}
			if pivot != -1 {
				return tree.Slice{}, fmt.Errorf("bounded: multiple pivots")
			}
			pivot = v
		}
	}
	if pivot == -1 {
		return tree.Slice{}, fmt.Errorf("bounded: no pivot")
	}
	// Parse coordinates of the remaining nodes.
	coords := make(map[int]tree.Coord, l.N()-1)
	index := make(map[tree.Coord]int, l.N()-1)
	minY := 1 << 30
	for v, lab := range l.Labels {
		if v == pivot {
			continue
		}
		r, c, err := tree.ParseCoordLabel(lab)
		if err != nil {
			return tree.Slice{}, err
		}
		if r != p.R {
			return tree.Slice{}, fmt.Errorf("bounded: node %d carries r=%d, want %d", v, r, p.R)
		}
		if _, dup := index[c]; dup {
			return tree.Slice{}, fmt.Errorf("bounded: duplicate coordinate %+v", c)
		}
		coords[v] = c
		index[c] = v
		if c.Y < minY {
			minY = c.Y
		}
	}
	if len(coords) == 0 {
		return tree.Slice{}, fmt.Errorf("bounded: only a pivot")
	}
	// The slice root is the unique minimum-level node.
	var root tree.Coord
	rootCount := 0
	for _, c := range coords {
		if c.Y == minY {
			root = c
			rootCount++
		}
	}
	if rootCount != 1 {
		return tree.Slice{}, fmt.Errorf("bounded: %d nodes at top level", rootCount)
	}
	s := tree.Slice{RootX: root.X, RootY: root.Y, Depth: p.R}
	want, err := p.SmallInstance(p.Tree(), s)
	if err != nil {
		return tree.Slice{}, err
	}
	if !graph.Isomorphic(l, want) {
		return tree.Slice{}, fmt.Errorf("bounded: instance differs from H+ of slice %+v", s)
	}
	return s, nil
}

// VerifyLarge checks globally whether l is exactly T_r.
func (p Params) VerifyLarge(l *graph.Labeled) error {
	depth, err := tree.VerifyLayeredTreeLabels(l, p.R)
	if err != nil {
		return err
	}
	if depth != p.BigR() {
		return fmt.Errorf("bounded: depth %d, want R(r) = %d", depth, p.BigR())
	}
	return nil
}

// ContainsP reports (G, x) ∈ P.
func (p Params) ContainsP(l *graph.Labeled) bool {
	_, err := p.VerifySmall(l)
	return err == nil
}

// ContainsPPrime reports (G, x) ∈ P' = P ∪ {T_r}.
func (p Params) ContainsPPrime(l *graph.Labeled) bool {
	return p.ContainsP(l) || p.VerifyLarge(l) == nil
}

// Local deciders --------------------------------------------------------------------

// StructureVerifier returns the Id-oblivious local algorithm witnessing
// P' ∈ LD*: every node performs the paper's coordinate and pivot checks on
// its radius-1 view. Under (¬C) the algorithm may consult the bound f (to
// know R(r)); here that is the Params value closed over, possibly an
// ids.Oracle-backed bound.
func (p Params) StructureVerifier() local.ObliviousAlgorithm {
	return local.ObliviousFunc(fmt.Sprintf("P'-verifier(r=%d)", p.R), 1, p.checkView)
}

// checkView performs all radius-1 structure checks for one node.
func (p Params) checkView(view *graph.View) local.Verdict {
	root := view.Root
	lab := view.Labels[root]
	if _, ok := tree.IsPivotLabel(lab); ok {
		return p.checkPivotView(view)
	}
	r, c, err := tree.ParseCoordLabel(lab)
	if err != nil || r != p.R {
		return local.No
	}
	bigR := p.BigR()
	if c.Y < 0 || c.Y > bigR || c.X < 0 || c.X >= 1<<c.Y {
		return local.No
	}
	// Classify neighbours by label.
	var hasParent, hasLeft, hasRight bool
	children := 0
	pivots := 0
	for _, u := range view.G.Neighbors(root) {
		ulab := view.Labels[u]
		if ur, ok := tree.IsPivotLabel(ulab); ok {
			if ur != p.R {
				return local.No
			}
			pivots++
			continue
		}
		ur, uc, err := tree.ParseCoordLabel(ulab)
		if err != nil || ur != p.R {
			return local.No
		}
		switch {
		case c.Y > 0 && uc.Y == c.Y-1 && uc.X == c.X/2:
			hasParent = true
		case uc.Y == c.Y && uc.X == c.X-1:
			hasLeft = true
		case uc.Y == c.Y && uc.X == c.X+1:
			hasRight = true
		case uc.Y == c.Y+1 && (uc.X == 2*c.X || uc.X == 2*c.X+1):
			children++
		default:
			return local.No // unexpected neighbour
		}
	}
	if pivots > 1 {
		return local.No
	}
	pivotAdjacent := pivots == 1
	// Absence rules: every structurally expected neighbour is either present
	// or explained by the pivot (border gluing).
	expectParent := c.Y > 0
	if expectParent && !hasParent && !pivotAdjacent {
		return local.No
	}
	if !expectParent && hasParent {
		return local.No
	}
	expectLeft := c.X > 0
	if expectLeft && !hasLeft && !pivotAdjacent {
		return local.No
	}
	expectRight := c.X < 1<<c.Y-1
	if expectRight && !hasRight && !pivotAdjacent {
		return local.No
	}
	expectChildren := c.Y < bigR
	switch {
	case expectChildren && children == 0 && !pivotAdjacent:
		return local.No
	case expectChildren && children == 1:
		return local.No // half-missing children are never legal
	case !expectChildren && children > 0:
		return local.No
	}
	// A pivot edge is only legal on border nodes: some expected neighbour is
	// absent.
	isBorder := (expectParent && !hasParent) ||
		(expectLeft && !hasLeft) ||
		(expectRight && !hasRight) ||
		(expectChildren && children == 0)
	if pivotAdjacent && !isBorder {
		return local.No
	}
	return local.Yes
}

// checkPivotView verifies a pivot node: its neighbourhood must be exactly
// the border of some depth-r slice of T_r. The pivot sees all border nodes,
// which is the crucial property the paper's proof of P' ∈ LD* uses.
func (p Params) checkPivotView(view *graph.View) local.Verdict {
	neighbours := view.G.Neighbors(view.Root)
	if len(neighbours) == 0 {
		return local.No
	}
	borderCoords := make(map[tree.Coord]struct{}, len(neighbours))
	minY := 1 << 30
	minYCount := 0
	var minYCoord tree.Coord
	minBottomX := 1 << 30
	maxY := -1
	for _, u := range neighbours {
		r, c, err := tree.ParseCoordLabel(view.Labels[u])
		if err != nil || r != p.R {
			return local.No
		}
		if _, dup := borderCoords[c]; dup {
			return local.No
		}
		borderCoords[c] = struct{}{}
		if c.Y < minY {
			minY, minYCount, minYCoord = c.Y, 1, c
		} else if c.Y == minY {
			minYCount++
		}
		if c.Y > maxY {
			maxY = c.Y
		}
	}
	for c := range borderCoords {
		if c.Y == maxY && c.X < minBottomX {
			minBottomX = c.X
		}
	}
	// Candidate slices: either the min-level border node is the slice root,
	// or the slice root is unbordered (top slice rooted at level 0) and the
	// border starts lower.
	var candidates []tree.Slice
	if minYCount == 1 {
		candidates = append(candidates, tree.Slice{RootX: minYCoord.X, RootY: minY, Depth: p.R})
	}
	if maxY-p.R >= 0 {
		candidates = append(candidates, tree.Slice{RootX: minBottomX >> p.R, RootY: maxY - p.R, Depth: p.R})
	}
	for _, s := range candidates {
		if s.RootY < 0 || s.RootY+p.R > p.BigR() || s.RootX < 0 || s.RootX >= 1<<s.RootY {
			continue
		}
		if coordSetsEqual(borderCoords, p.expectedBorder(s)) {
			return local.Yes
		}
	}
	return local.No
}

// expectedBorder computes the border coordinate set of a slice of T_r.
func (p Params) expectedBorder(s tree.Slice) map[tree.Coord]struct{} {
	bigR := p.BigR()
	out := make(map[tree.Coord]struct{})
	for d := 0; d <= s.Depth; d++ {
		y := s.RootY + d
		lo := s.RootX << d
		hi := (s.RootX+1)<<d - 1 // inclusive
		levelEdgeLeft := lo == 0
		levelEdgeRight := hi == 1<<y-1
		// Root: border iff it has a parent or lateral outside (y > 0).
		if d == 0 {
			if s.RootY > 0 {
				out[tree.Coord{X: lo, Y: y}] = struct{}{}
			}
			continue
		}
		// Range-edge columns: lateral outside unless at the level edge.
		if !levelEdgeLeft {
			out[tree.Coord{X: lo, Y: y}] = struct{}{}
		}
		if !levelEdgeRight {
			out[tree.Coord{X: hi, Y: y}] = struct{}{}
		}
		// Bottom level: children outside unless the slice bottoms out at T_r's
		// own bottom level.
		if d == s.Depth && y < bigR {
			for x := lo; x <= hi; x++ {
				out[tree.Coord{X: x, Y: y}] = struct{}{}
			}
		}
	}
	return out
}

func coordSetsEqual(a, b map[tree.Coord]struct{}) bool {
	if len(a) != len(b) {
		return false
	}
	for c := range a {
		if _, ok := b[c]; !ok {
			return false
		}
	}
	return true
}

// IDDecider returns the ID-using local algorithm witnessing P ∈ LD: run the
// structure checks (accepting both small and large instances), then reject
// if the node's own identifier is at least R(r) — which happens at some node
// of T_r under every legal bounded assignment, and never in a small
// instance.
func (p Params) IDDecider() local.Algorithm {
	verifier := p.StructureVerifier()
	return local.AlgorithmFunc(fmt.Sprintf("P-decider(r=%d)", p.R), 1, func(view *graph.View) local.Verdict {
		if verifier.DecideOblivious(view.StripIDs()) == local.No {
			return local.No
		}
		if view.RootID() >= p.BigR() {
			return local.No
		}
		return local.Yes
	})
}

// CoverageReport quantifies the indistinguishability at the heart of
// P ∉ LD*: which fraction of the radius-t oblivious views of the host
// layered tree occur in small instances. The paper's argument needs every
// view covered; the measured shape is coverage → 1 as r grows (uncovered
// nodes sit at dyadic positions x ≡ 0, -1 mod 2^(r-1), a 2^(2-r) fraction).
type CoverageReport struct {
	Params     Params
	Depth      int // depth of the host layered tree
	Horizon    int
	TotalNodes int
	Covered    int
	// InteriorCovered / InteriorNodes restrict to nodes whose distance to
	// the top and bottom levels exceeds the horizon — the "highlighted"
	// band of the paper's Figure 1.
	InteriorNodes   int
	InteriorCovered int
}

// Fraction returns the overall coverage fraction.
func (c CoverageReport) Fraction() float64 {
	if c.TotalNodes == 0 {
		return 1
	}
	return float64(c.Covered) / float64(c.TotalNodes)
}

// InteriorFraction returns the coverage fraction over the interior band.
func (c CoverageReport) InteriorFraction() float64 {
	if c.InteriorNodes == 0 {
		return 1
	}
	return float64(c.InteriorCovered) / float64(c.InteriorNodes)
}

// MeasureCoverageAtDepth measures view coverage with a host layered tree of
// the given depth (decoupled from R(r), which grows beyond reach of any
// in-memory experiment for r >= 3; the construction is uniform in the depth,
// so the coverage shape is unaffected — see DESIGN.md).
func (p Params) MeasureCoverageAtDepth(depth, horizon int) (CoverageReport, error) {
	if depth < p.R {
		return CoverageReport{}, fmt.Errorf("bounded: depth %d < r %d", depth, p.R)
	}
	t := tree.NewLayeredTree(depth)
	large := t.Labeled(p.R)
	smalls, err := p.AllSmallInstancesOf(t)
	if err != nil {
		return CoverageReport{}, err
	}
	available := make(map[string]struct{})
	for _, h := range smalls {
		for code := range graph.ObliviousViewSet(h, horizon) {
			available[code] = struct{}{}
		}
	}
	rep := CoverageReport{Params: p, Depth: depth, Horizon: horizon, TotalNodes: large.N()}
	for v := 0; v < large.N(); v++ {
		_, c, err := tree.ParseCoordLabel(large.Labels[v])
		if err != nil {
			return CoverageReport{}, err
		}
		interior := c.Y > horizon && c.Y < depth-horizon
		if interior {
			rep.InteriorNodes++
		}
		code := graph.ObliviousViewOf(large, v, horizon).ObliviousCode()
		if _, ok := available[code]; ok {
			rep.Covered++
			if interior {
				rep.InteriorCovered++
			}
		}
	}
	return rep, nil
}
