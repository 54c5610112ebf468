package oblivious

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/local"
)

// This file implements the PO model of Section 1.3: no identifiers, but each
// node numbers its incident edges with ports 1..deg, and every edge carries
// an orientation. PO retains some symmetry-breaking information — enough for
// tasks like reading off an edge orientation — but strictly less than
// identifiers: a t-round PO algorithm sees only the depth-t unfolding
// (universal cover) of the port-numbered oriented graph, so instances with
// a common cover are indistinguishable.

// PortNumbering equips a graph with ports and edge orientations.
type PortNumbering struct {
	// ports[v][i] is the neighbour of v reached through port i (0-based).
	ports [][]int
	// portBack[v][i] is the port at that neighbour leading back to v.
	portBack [][]int
	// outward[v][i] reports whether the edge at port i is oriented away
	// from v.
	outward [][]bool
}

// NewPortNumbering builds the canonical port numbering of a graph: ports
// follow the sorted adjacency lists, and each edge {u, v} is oriented from
// min to max index. (Index order is a construction device only; PO
// algorithms never see indices.)
func NewPortNumbering(g *graph.Graph) *PortNumbering {
	n := g.N()
	pn := &PortNumbering{
		ports:    make([][]int, n),
		portBack: make([][]int, n),
		outward:  make([][]bool, n),
	}
	for v := 0; v < n; v++ {
		nbrs := g.Neighbors(v)
		pn.ports[v] = make([]int, len(nbrs))
		pn.portBack[v] = make([]int, len(nbrs))
		pn.outward[v] = make([]bool, len(nbrs))
		for i, u := range nbrs {
			pn.ports[v][i] = int(u)
			pn.outward[v][i] = v < int(u)
			back := g.Neighbors(int(u))
			for j, w := range back {
				if int(w) == v {
					pn.portBack[v][i] = j
				}
			}
		}
	}
	return pn
}

// ShufflePorts permutes every node's port order pseudo-randomly (a PO
// algorithm must work for every port numbering).
func (pn *PortNumbering) ShufflePorts(seed int64) *PortNumbering {
	rng := rand.New(rand.NewSource(seed))
	n := len(pn.ports)
	out := &PortNumbering{
		ports:    make([][]int, n),
		portBack: make([][]int, n),
		outward:  make([][]bool, n),
	}
	// First pick the permutations.
	perms := make([][]int, n)
	for v := range perms {
		perms[v] = rng.Perm(len(pn.ports[v]))
	}
	for v := 0; v < n; v++ {
		deg := len(pn.ports[v])
		out.ports[v] = make([]int, deg)
		out.portBack[v] = make([]int, deg)
		out.outward[v] = make([]bool, deg)
		for i := 0; i < deg; i++ {
			src := perms[v][i]
			u := pn.ports[v][src]
			out.ports[v][i] = u
			out.outward[v][i] = pn.outward[v][src]
			// The back-port index must be u's NEW index for the edge.
			oldBack := pn.portBack[v][src]
			newBack := 0
			for j, p := range perms[u] {
				if p == oldBack {
					newBack = j
				}
			}
			out.portBack[v][i] = newBack
		}
	}
	return out
}

// ReverseOrientations flips every edge orientation.
func (pn *PortNumbering) ReverseOrientations() *PortNumbering {
	n := len(pn.ports)
	out := &PortNumbering{
		ports:    pn.ports,
		portBack: pn.portBack,
		outward:  make([][]bool, n),
	}
	for v := 0; v < n; v++ {
		out.outward[v] = make([]bool, len(pn.outward[v]))
		for i, o := range pn.outward[v] {
			out.outward[v][i] = !o
		}
	}
	return out
}

// ConsistentCycleOrientation returns a port numbering of a cycle where every
// node has its successor on port 0, oriented outward — the fully symmetric
// configuration under which all PO views coincide.
func ConsistentCycleOrientation(n int) (*graph.Graph, *PortNumbering) {
	if n < 3 {
		panic("oblivious: cycle needs n >= 3")
	}
	g := graph.Cycle(n)
	pn := &PortNumbering{
		ports:    make([][]int, n),
		portBack: make([][]int, n),
		outward:  make([][]bool, n),
	}
	for v := 0; v < n; v++ {
		next := (v + 1) % n
		prev := (v - 1 + n) % n
		pn.ports[v] = []int{next, prev}
		pn.portBack[v] = []int{1, 0} // at next, we are its port-1 (prev) side
		pn.outward[v] = []bool{true, false}
	}
	return g, pn
}

// POTree is the depth-t view of a PO algorithm: the unfolded (universal
// cover) neighbourhood. Each child is reached through a port and carries the
// far-end port and the orientation as seen from the parent.
type POTree struct {
	Label graph.Label
	// Children[i] corresponds to port i.
	Children []*POChild
}

// POChild is one port of a POTree node.
type POChild struct {
	// Outward reports whether the edge is oriented away from the parent.
	Outward bool
	// BackPort is the port number at the far end leading back.
	BackPort int
	// Subtree is nil at the view's depth limit.
	Subtree *POTree
}

// BuildPOView unfolds the depth-t PO view of node v. Unlike graph.ViewOf,
// the unfolding does NOT identify revisited nodes: anonymous message passing
// cannot detect cycles, which is exactly the PO model's weakness.
func BuildPOView(l *graph.Labeled, pn *PortNumbering, v, t int) *POTree {
	return unfold(l, pn, v, -1, t)
}

// unfold expands the view; cameFrom is the port index AT v through which we
// arrived (-1 at the root), excluded from re-expansion to avoid immediate
// backtracking (standard universal-cover convention keeps the back edge as
// a child but does not walk back through it; we keep all ports as children
// and only stop at depth 0).
func unfold(l *graph.Labeled, pn *PortNumbering, v, cameFrom, depth int) *POTree {
	node := &POTree{Label: l.Labels[v], Children: make([]*POChild, len(pn.ports[v]))}
	for i, u := range pn.ports[v] {
		child := &POChild{Outward: pn.outward[v][i], BackPort: pn.portBack[v][i]}
		if depth > 0 {
			child.Subtree = unfold(l, pn, u, pn.portBack[v][i], depth-1)
		}
		node.Children[i] = child
	}
	_ = cameFrom
	return node
}

// Encode serialises a POTree deterministically: equal encodings mean the PO
// algorithm receives identical inputs.
func (t *POTree) Encode() string {
	var b strings.Builder
	t.encode(&b)
	return b.String()
}

func (t *POTree) encode(b *strings.Builder) {
	fmt.Fprintf(b, "[%q", t.Label)
	for _, c := range t.Children {
		fmt.Fprintf(b, "(o=%v,bp=%d", c.Outward, c.BackPort)
		if c.Subtree != nil {
			c.Subtree.encode(b)
		}
		b.WriteByte(')')
	}
	b.WriteByte(']')
}

// POAlgorithm is a local algorithm in the PO model.
type POAlgorithm interface {
	Name() string
	Horizon() int
	DecidePO(view *POTree) local.Verdict
}

// POFunc adapts a function to a POAlgorithm.
func POFunc(name string, horizon int, decide func(view *POTree) local.Verdict) POAlgorithm {
	return funcPO{name: name, horizon: horizon, decide: decide}
}

type funcPO struct {
	name    string
	horizon int
	decide  func(view *POTree) local.Verdict
}

func (f funcPO) Name() string                        { return f.name }
func (f funcPO) Horizon() int                        { return f.horizon }
func (f funcPO) DecidePO(view *POTree) local.Verdict { return f.decide(view) }

// RunPO evaluates a PO algorithm on every node.
func RunPO(alg POAlgorithm, l *graph.Labeled, pn *PortNumbering) local.Outcome {
	verdicts := make([]local.Verdict, l.N())
	accepted := true
	for v := 0; v < l.N(); v++ {
		verdicts[v] = alg.DecidePO(BuildPOView(l, pn, v, alg.Horizon()))
		if verdicts[v] == local.No {
			accepted = false
		}
	}
	return local.Outcome{Verdicts: verdicts, Accepted: accepted}
}

// POOutputAlgorithm is a PO construction algorithm.
type POOutputAlgorithm interface {
	Name() string
	Horizon() int
	OutputPO(view *POTree) string
}

// POOutputFunc adapts a function.
func POOutputFunc(name string, horizon int, out func(view *POTree) string) POOutputAlgorithm {
	return funcPOOutput{name: name, horizon: horizon, out: out}
}

type funcPOOutput struct {
	name    string
	horizon int
	out     func(view *POTree) string
}

func (f funcPOOutput) Name() string                 { return f.name }
func (f funcPOOutput) Horizon() int                 { return f.horizon }
func (f funcPOOutput) OutputPO(view *POTree) string { return f.out(view) }

// RunPOOutputs evaluates a PO construction algorithm on every node.
func RunPOOutputs(alg POOutputAlgorithm, l *graph.Labeled, pn *PortNumbering) []string {
	out := make([]string, l.N())
	for v := 0; v < l.N(); v++ {
		out[v] = alg.OutputPO(BuildPOView(l, pn, v, alg.Horizon()))
	}
	return out
}

// OrientEdgesPO solves the edge-orientation task in the PO model by reading
// the given orientation — the task that is impossible Id-obliviously
// (Section 1.3's first example) becomes trivial with PO.
func OrientEdgesPO() POOutputAlgorithm {
	return POOutputFunc("orient-by-po", 0, func(view *POTree) string {
		dirs := make([]byte, len(view.Children))
		for i, c := range view.Children {
			if c.Outward {
				dirs[i] = '>'
			} else {
				dirs[i] = '<'
			}
		}
		return string(dirs)
	})
}

// TwoColoringPO 2-colours a 1-regular graph in the PO model: the edge
// orientation breaks the tie that defeats Id-oblivious algorithms.
func TwoColoringPO() POOutputAlgorithm {
	return POOutputFunc("2col-by-po", 0, func(view *POTree) string {
		if len(view.Children) != 1 {
			return "invalid"
		}
		if view.Children[0].Outward {
			return "black"
		}
		return "white"
	})
}

// POViewsAllEqual reports whether every node of the instance has the same
// PO view at the given horizon (the symmetric situation in which no PO
// algorithm can break ties or count).
func POViewsAllEqual(l *graph.Labeled, pn *PortNumbering, horizon int) bool {
	if l.N() == 0 {
		return true
	}
	first := BuildPOView(l, pn, 0, horizon).Encode()
	for v := 1; v < l.N(); v++ {
		if BuildPOView(l, pn, v, horizon).Encode() != first {
			return false
		}
	}
	return true
}

// Degree returns the number of ports at v.
func (pn *PortNumbering) Degree(v int) int { return len(pn.ports[v]) }

// CheckConsistent validates internal invariants: port/back-port symmetry and
// antisymmetric orientations.
func (pn *PortNumbering) CheckConsistent() error {
	for v := range pn.ports {
		if len(pn.ports[v]) != len(pn.portBack[v]) || len(pn.ports[v]) != len(pn.outward[v]) {
			return fmt.Errorf("oblivious: ragged port tables at node %d", v)
		}
		seen := map[int]struct{}{}
		for i, u := range pn.ports[v] {
			if _, dup := seen[u]; dup {
				return fmt.Errorf("oblivious: node %d lists neighbour %d twice", v, u)
			}
			seen[u] = struct{}{}
			back := pn.portBack[v][i]
			if back < 0 || back >= len(pn.ports[u]) || pn.ports[u][back] != v {
				return fmt.Errorf("oblivious: back port broken on edge {%d,%d}", v, u)
			}
			if pn.outward[v][i] == pn.outward[u][back] {
				return fmt.Errorf("oblivious: edge {%d,%d} oriented both ways or neither", v, u)
			}
		}
	}
	return nil
}

// sortedPorts is a test helper: the neighbours in port order, sorted.
func (pn *PortNumbering) sortedPorts(v int) []int {
	out := append([]int(nil), pn.ports[v]...)
	sort.Ints(out)
	return out
}
