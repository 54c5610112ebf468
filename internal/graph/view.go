package graph

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
)

// View is the restriction (G, x, Id) |> B(v, t): the labelled graph induced on
// the radius-t ball around a centre node, with the centre distinguished as
// Root (index in the view's own node numbering) and the original identifiers
// carried along. Original identifies the view's node indices back to the
// parent instance.
//
// A View is the entire input of a local algorithm with horizon t. Id-oblivious
// algorithms see the view without IDs; ID-using algorithms see IDs too.
type View struct {
	*Labeled
	Root     int
	Radius   int
	IDs      []int // identifier per view node; nil when extracted from a Labeled
	Original []int // view index -> node index in the parent graph

	// ws is the canonical-code workspace the view's code computations run
	// in. Views produced by a ViewExtractor share the extractor's workspace;
	// one-shot views create their own lazily. Not safe for concurrent use.
	ws *CodeWorkspace
}

// ViewOf extracts the radius-t view of node v from an instance, including
// identifiers.
func ViewOf(in *Instance, v, t int) *View {
	ball := in.G.Ball(v, t)
	sub, orig := in.Labeled.InducedSubgraph(ball)
	ids := make([]int, len(orig))
	for i, w := range orig {
		ids[i] = in.IDs[w]
	}
	return &View{Labeled: sub, Root: 0, Radius: t, IDs: ids, Original: orig}
}

// ObliviousViewOf extracts the radius-t view of node v from a labelled graph
// without identifiers. This is the whole input of an Id-oblivious algorithm.
func ObliviousViewOf(l *Labeled, v, t int) *View {
	ball := l.G.Ball(v, t)
	sub, orig := l.InducedSubgraph(ball)
	return &View{Labeled: sub, Root: 0, Radius: t, Original: orig}
}

// Clone returns a copy of the view that owns all of its memory, so it
// outlives the extractor that produced it. A clone of a ViewExtractor view
// is field for field the view ViewOf or ObliviousViewOf builds for the same
// node and radius.
func (v *View) Clone() *View {
	c := &View{Labeled: v.Labeled.Clone(), Root: v.Root, Radius: v.Radius, Original: slices.Clone(v.Original)}
	if v.IDs != nil {
		c.IDs = slices.Clone(v.IDs)
	}
	return c
}

// StripIDs returns a copy of the view with identifiers removed.
func (v *View) StripIDs() *View {
	return &View{Labeled: v.Labeled, Root: v.Root, Radius: v.Radius, Original: v.Original, ws: v.ws}
}

// workspace returns the view's canonical-code workspace, creating one on
// first use for views not produced by a ViewExtractor.
func (v *View) workspace() *CodeWorkspace {
	if v.ws == nil {
		v.ws = NewCodeWorkspace()
	}
	return v.ws
}

// RawCode is a fingerprinted byte encoding of the view exactly as extracted:
// root, then the CSR degree/neighbour arrays, then the labels. Equal raw
// codes imply identical rooted labelled graphs (hence isomorphic views); the
// converse does not hold — isomorphic views extracted in different BFS
// discovery orders encode differently. Because extraction order is a
// deterministic function of the host structure, structurally repeated
// neighbourhoods (every node of a uniform cycle, interior grid nodes, table
// cells) produce byte-identical raw codes, which makes RawCode a sound and
// nearly-free first-level dedup key in front of the full canonical code: it
// is one linear pass over the view's flat arrays, no refinement search.
//
// The returned bytes alias workspace memory (a buffer distinct from
// CanonCode's, so a raw code survives one subsequent canonical-code
// computation); they are invalidated by the next RawCode on a view sharing
// the workspace. Identifiers are deliberately excluded — the engine only
// dedups identifier-free evaluations.
func (v *View) RawCode() Code {
	w := v.workspace()
	b := w.rawBuf[:0]
	b = binary.AppendUvarint(b, uint64(v.N()))
	b = binary.AppendUvarint(b, uint64(v.Root))
	g := v.G
	g.ensureStatic()
	for i := 0; i < g.N(); i++ {
		b = binary.AppendUvarint(b, uint64(g.offsets[i+1]-g.offsets[i]))
	}
	for _, u := range g.neighbors {
		b = binary.AppendUvarint(b, uint64(u))
	}
	for _, lab := range v.Labels {
		b = binary.AppendUvarint(b, uint64(len(lab)))
		b = append(b, lab...)
	}
	w.rawBuf = b
	return Code{Fingerprint: fingerprint64(b), Bytes: b}
}

// CanonCode is the fingerprinted canonical code of the view ignoring
// identifiers, computed by the allocation-free integer pipeline in the
// view's workspace. The returned bytes alias workspace memory: they are
// valid until the next code computation on a view sharing the workspace
// (for extractor-produced views, until the extractor's next At). Callers
// that retain the code must Clone it.
func (v *View) CanonCode() Code {
	return v.workspace().RootedCode(v.Labeled, v.Root)
}

// RefinementCode is the view's colour-refinement code ignoring identifiers
// (CodeWorkspace.RefinementCode), computed in the view's workspace. Its
// bytes alias workspace memory exactly like CanonCode's.
func (v *View) RefinementCode() Code {
	return v.workspace().RefinementCode(v.Labeled, v.Root)
}

// ObliviousCode is the canonical code of the view ignoring identifiers: two
// nodes receive the same ObliviousCode iff no Id-oblivious algorithm with this
// horizon can distinguish them. (Kept label-only so renaming IDs never changes
// the code.) The string is a copy of CanonCode's bytes.
func (v *View) ObliviousCode() string {
	return string(v.CanonCode().Bytes)
}

// Code is the canonical code of the view including identifiers: the full
// information available to an ID-using local algorithm. Identifier values are
// folded into the node labels, so equal codes mean equal inputs up to the
// irrelevant node indexing.
func (v *View) Code() string {
	if v.IDs == nil {
		return v.ObliviousCode()
	}
	labels := make([]Label, v.N())
	for i, lab := range v.Labels {
		labels[i] = lab + "#id=" + strconv.Itoa(v.IDs[i])
	}
	withIDs := &Labeled{G: v.G, Labels: labels}
	return string(v.workspace().RootedCode(withIDs, v.Root).Bytes)
}

// RootID returns the identifier of the view's root.
func (v *View) RootID() int {
	if v.IDs == nil {
		panic("graph: RootID on an oblivious view")
	}
	return v.IDs[v.Root]
}

// MaxIDInView returns the largest identifier visible in the view.
func (v *View) MaxIDInView() int {
	if v.IDs == nil {
		panic("graph: MaxIDInView on an oblivious view")
	}
	max := -1
	for _, id := range v.IDs {
		if id > max {
			max = id
		}
	}
	return max
}

// String renders a compact description.
func (v *View) String() string {
	kind := "oblivious"
	if v.IDs != nil {
		kind = "with-ids"
	}
	return fmt.Sprintf("View(%s, n=%d, r=%d, rootLabel=%q)", kind, v.N(), v.Radius, v.Labels[v.Root])
}

// AllObliviousViews returns the radius-t view of every node of l, without
// identifiers.
func AllObliviousViews(l *Labeled, t int) []*View {
	views := make([]*View, l.N())
	for v := 0; v < l.N(); v++ {
		views[v] = ObliviousViewOf(l, v, t)
	}
	return views
}

// ObliviousViewSet returns the set of distinct oblivious view codes occurring
// in l at radius t. Extraction and code computation run through a batched
// extractor with one shared workspace, so the sweep is allocation-free per
// node beyond the set itself.
func ObliviousViewSet(l *Labeled, t int) map[string]struct{} {
	set := make(map[string]struct{})
	x := NewViewExtractor(l)
	for v := 0; v < l.N(); v++ {
		set[string(x.At(v, t).CanonCode().Bytes)] = struct{}{}
	}
	return set
}

// CoverageFraction reports what fraction of the oblivious radius-t views of
// host occur in the union of the views of the covers. A fraction of 1 means
// every local neighbourhood of host already appears in some cover graph —
// the indistinguishability situation at the core of the paper's lower bounds.
func CoverageFraction(host *Labeled, covers []*Labeled, t int) float64 {
	if host.N() == 0 {
		return 1
	}
	available := make(map[string]struct{})
	for _, c := range covers {
		for code := range ObliviousViewSet(c, t) {
			available[code] = struct{}{}
		}
	}
	covered := 0
	x := NewViewExtractor(host)
	for v := 0; v < host.N(); v++ {
		if _, ok := available[string(x.At(v, t).CanonCode().Bytes)]; ok {
			covered++
		}
	}
	return float64(covered) / float64(host.N())
}
