package graph

import (
	"fmt"
	"slices"
)

// ViewExtractor extracts radius-t views in bulk while reusing all scratch
// memory between calls: the ball search's Traversal, the view's flat CSR
// arrays, and the label/identifier/original-index buffers. One
// extractor per worker turns per-node view extraction from "two map-backed
// allocations per node" (Ball + InducedSubgraph) into an allocation-free
// inner loop, which is where the evaluation engine spends its time on the
// large Section 3 instances.
//
// The emitted view graph is written directly into one reused flat arena
// (offsets + neighbours), mirroring the host graph's CSR layout: both the
// BFS over the host and the induced-subgraph emission walk contiguous int32
// ranges, with no per-node slice headers on either side.
//
// The extractor reproduces ViewOf / ObliviousViewOf exactly: the ball comes
// from the same layered search as Traversal.Ball, so the view's node
// ordering is the same discovery order (centre first, then by distance,
// within a layer by discovery) and the returned view is field-for-field
// identical to the one the one-shot helpers build.
//
// Lifetime contract: the *View returned by At (and everything it references —
// structure, labels, identifiers, Original) is only valid until the next call
// to At on the same extractor. Callers that need to retain a view must copy
// it; local deciders, which are pure functions of the view, never do.
//
// A ViewExtractor is not safe for concurrent use; give each worker its own.
type ViewExtractor struct {
	l   *Labeled
	ids []int // identifier per original node; nil for oblivious extraction

	// gen is the host graph's structural generation captured at bind time
	// (NewViewExtractor / Reset). At checks it so that extracting after the
	// host mutated — which the compat mutators historically allowed to read
	// torn adjacency silently — is a detected error instead.
	gen uint64

	// tr searches the ball; its queue is the ball in discovery order.
	// viewIndex maps an original node to its dense view index, valid where
	// tr's current epoch has stamped the node.
	tr        Traversal
	viewIndex []int32

	// Reusable view output buffers, sized to the largest ball seen so far.
	// The view's adjacency is one flat CSR arena reused across calls.
	viewOffsets []int32
	viewNbrs    []int32
	labels      []Label
	outIDs      []int
	orig        []int

	// The returned view aliases these; they are overwritten by the next At.
	g       Graph
	labeled Labeled
	view    View

	// code is the canonical-code workspace shared by every view this
	// extractor produces, so code computation in the engine's inner loop
	// reuses one set of buffers end to end.
	code *CodeWorkspace
}

// NewViewExtractor returns an extractor producing ID-free views of l
// (the batched equivalent of ObliviousViewOf).
func NewViewExtractor(l *Labeled) *ViewExtractor {
	return &ViewExtractor{
		l:         l,
		gen:       l.G.Generation(),
		viewIndex: make([]int32, l.N()),
		code:      NewCodeWorkspace(),
	}
}

// NewInstanceViewExtractor returns an extractor producing identifier-carrying
// views of in (the batched equivalent of ViewOf).
func NewInstanceViewExtractor(in *Instance) *ViewExtractor {
	x := NewViewExtractor(in.Labeled)
	x.ids = in.IDs
	return x
}

// Reset rebinds the extractor to a new host graph while retaining every
// scratch buffer: the search's Traversal, the flat view arenas and the
// shared canonical-code workspace. It is the batched-evaluation analogue of
// NewViewExtractor — one worker's extractor serves a whole slice of
// instances, so per-instance setup stops allocating once the largest host
// has been seen. Stamp entries from the previous host are harmless: every
// search advances the visit epoch, so no stale stamp can equal a fresh
// epoch. After Reset the extractor produces ID-free views; use
// ResetInstance to carry identifiers.
func (x *ViewExtractor) Reset(l *Labeled) {
	if n := l.N(); cap(x.viewIndex) < n {
		x.viewIndex = make([]int32, n)
	} else {
		x.viewIndex = x.viewIndex[:n]
	}
	x.l = l
	x.gen = l.G.Generation()
	x.ids = nil
}

// ResetInstance rebinds the extractor to an identifier-carrying instance,
// retaining scratch exactly like Reset.
func (x *ViewExtractor) ResetInstance(in *Instance) {
	x.Reset(in.Labeled)
	x.ids = in.IDs
}

// At extracts the radius-t view of node v. The result is valid until the next
// call; see the type documentation for the full lifetime contract.
func (x *ViewExtractor) At(v, t int) *View {
	g := x.l.G
	if g.gen != x.gen {
		panic(fmt.Sprintf("graph: ViewExtractor used after host mutation (bound at generation %d, host now %d); call Reset/ResetInstance after mutating the graph", x.gen, g.gen))
	}
	g.check(v)
	if t < 0 {
		panic("graph: negative radius")
	}
	x.tr.next(g.N())
	x.tr.visit(int32(v))
	x.tr.search(g, 0, t, -1)
	ball := x.tr.queue

	k := len(ball)
	x.growOutput(k)
	for i, w := range ball {
		x.viewIndex[w] = int32(i)
	}
	// Emit the induced subgraph straight into the flat arena: node i's
	// neighbours are appended contiguously, then the (small) range is sorted
	// to restore the CSR invariant (neighbours arrive in original-index
	// order, but view indices follow discovery order).
	x.viewNbrs = x.viewNbrs[:0]
	x.viewOffsets = append(x.viewOffsets[:0], 0)
	for _, w := range ball {
		start := len(x.viewNbrs)
		for _, u := range g.row(int(w)) {
			if x.tr.seen(u) {
				x.viewNbrs = append(x.viewNbrs, x.viewIndex[u])
			}
		}
		slices.Sort(x.viewNbrs[start:])
		x.viewOffsets = append(x.viewOffsets, int32(len(x.viewNbrs)))
	}
	for i, w := range ball {
		x.labels[i] = x.l.Labels[w]
		x.orig[i] = int(w)
		if x.ids != nil {
			x.outIDs[i] = x.ids[w]
		}
	}

	// Pre-size the shared code workspace for this view while its arrays are
	// hot: a following CanonCode miss then runs entirely in warm, already
	// grown buffers (a handful of cap checks when nothing needs growing).
	x.code.Prewarm(k, len(x.viewNbrs)/2)

	x.g = Graph{offsets: x.viewOffsets, neighbors: x.viewNbrs, m: len(x.viewNbrs) / 2}
	x.labeled = Labeled{G: &x.g, Labels: x.labels[:k]}
	x.view = View{Labeled: &x.labeled, Root: 0, Radius: t, Original: x.orig[:k], ws: x.code}
	if x.ids != nil {
		x.view.IDs = x.outIDs[:k]
	}
	return &x.view
}

// growOutput ensures the reusable output buffers hold k view nodes.
func (x *ViewExtractor) growOutput(k int) {
	if cap(x.labels) < k {
		x.labels = make([]Label, k)
		x.orig = make([]int, k)
		x.outIDs = make([]int, k)
	}
	x.labels = x.labels[:k]
	x.orig = x.orig[:k]
	x.outIDs = x.outIDs[:k]
}
