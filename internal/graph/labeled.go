package graph

import "fmt"

// Label is the local input x(v) of a node. Labels are opaque strings;
// structured labels are encoded by their owning packages.
type Label = string

// Labeled is a labelled graph (G, x): a graph together with one label per
// node. It corresponds to the paper's notion of an input instance before
// identifiers are assigned.
type Labeled struct {
	G      *Graph
	Labels []Label
}

// NewLabeled wraps g with the given labels. The label slice length must equal
// the node count; a nil slice yields all-empty labels.
func NewLabeled(g *Graph, labels []Label) *Labeled {
	if labels == nil {
		labels = make([]Label, g.N())
	}
	if len(labels) != g.N() {
		panic(fmt.Sprintf("graph: %d labels for %d nodes", len(labels), g.N()))
	}
	return &Labeled{G: g, Labels: labels}
}

// UniformlyLabeled wraps g with the same label on every node.
func UniformlyLabeled(g *Graph, label Label) *Labeled {
	labels := make([]Label, g.N())
	for i := range labels {
		labels[i] = label
	}
	return &Labeled{G: g, Labels: labels}
}

// N returns the number of nodes.
func (l *Labeled) N() int { return l.G.N() }

// Clone returns a deep copy.
func (l *Labeled) Clone() *Labeled {
	return &Labeled{G: l.G.Clone(), Labels: append([]Label(nil), l.Labels...)}
}

// InducedSubgraph restricts the labelled graph to the given nodes, returning
// the sub-labelled-graph and the new-index -> old-index mapping.
func (l *Labeled) InducedSubgraph(nodes []int) (*Labeled, []int) {
	sub, orig := l.G.InducedSubgraph(nodes)
	labels := make([]Label, len(nodes))
	for i, v := range nodes {
		labels[i] = l.Labels[v]
	}
	return &Labeled{G: sub, Labels: labels}, orig
}

// Relabel applies a node permutation to both structure and labels.
func (l *Labeled) Relabel(perm []int) *Labeled {
	h := l.G.Relabel(perm)
	labels := make([]Label, len(l.Labels))
	for v, lab := range l.Labels {
		labels[perm[v]] = lab
	}
	return &Labeled{G: h, Labels: labels}
}

// Equal reports field-wise equality (same indexing, structure and labels).
func (l *Labeled) Equal(m *Labeled) bool {
	if !l.G.Equal(m.G) {
		return false
	}
	for i, lab := range l.Labels {
		if m.Labels[i] != lab {
			return false
		}
	}
	return true
}

// String renders a compact description including a label summary.
func (l *Labeled) String() string {
	distinct := make(map[Label]struct{}, len(l.Labels))
	for _, lab := range l.Labels {
		distinct[lab] = struct{}{}
	}
	return fmt.Sprintf("Labeled(n=%d, m=%d, labels=%d distinct)", l.N(), l.G.M(), len(distinct))
}

// Instance is an input triple (G, x, Id): a labelled graph together with a
// one-to-one identifier assignment.
type Instance struct {
	*Labeled
	IDs []int
}

// NewInstance pairs a labelled graph with identifiers. Identifiers must be
// non-negative and pairwise distinct (the assignment Id: V -> N is
// one-to-one).
func NewInstance(l *Labeled, ids []int) *Instance {
	if len(ids) != l.N() {
		panic(fmt.Sprintf("graph: %d identifiers for %d nodes", len(ids), l.N()))
	}
	seen := make(map[int]struct{}, len(ids))
	for v, id := range ids {
		if id < 0 {
			panic(fmt.Sprintf("graph: negative identifier %d at node %d", id, v))
		}
		if _, dup := seen[id]; dup {
			panic(fmt.Sprintf("graph: duplicate identifier %d", id))
		}
		seen[id] = struct{}{}
	}
	return &Instance{Labeled: l, IDs: append([]int(nil), ids...)}
}

// MaxID returns the largest identifier, or -1 for the empty instance.
func (in *Instance) MaxID() int {
	max := -1
	for _, id := range in.IDs {
		if id > max {
			max = id
		}
	}
	return max
}

// String renders a compact description.
func (in *Instance) String() string {
	return fmt.Sprintf("Instance(n=%d, m=%d, maxID=%d)", in.N(), in.G.M(), in.MaxID())
}
