// Package graph provides the graph substrate for the LOCAL-model decision
// framework: simple undirected graphs, labelled graphs, identifier-carrying
// instances, radius-t views, canonical forms of views modulo identifiers, and
// generators for the graph families used throughout the paper (paths, cycles,
// grids, layered trees are built on top in package tree).
//
// Nodes are dense integer indices 0..n-1. Labels are opaque strings; packages
// that need structured labels (coordinates, Turing-machine cells) provide
// their own encode/decode functions on top.
//
// Graphs are stored in compressed sparse row (CSR) form: one flat offsets
// array and one flat neighbors array holding every adjacency list
// back-to-back, each list sorted ascending. The representation is canonical —
// two structurally equal graphs have identical arrays — and cache-linear:
// BFS and view extraction walk contiguous int32 ranges instead of chasing
// per-node slice headers. Bulk construction goes through Builder, which
// freezes an edge list in O(n+m); AddEdge/AddNode remain as compatibility
// mutators for small post-hoc edits (tests corrupting instances) but rebuild
// the flat arrays per call and must not be used on hot paths.
//
// Every radius-t ball the repository computes — a view's node set, a
// shard's halo, an incremental session's dirty set, a component — comes
// from one layered breadth-first search (Traversal), so all of them share
// one discovery order: seeds first, then by distance, and within a layer
// by discovery.
package graph

import (
	"fmt"
	"sort"
)

// Graph is a simple undirected graph on nodes 0..n-1 in CSR form.
//
// The zero value is the empty graph. Node indices and offsets are int32: the
// representation supports up to 2^31-1 nodes and 2^30 undirected edges, far
// above the 10^6-node production target, at half the memory of int on 64-bit.
// Adjacency rows are kept sorted so that two structurally equal graphs
// compare equal field-wise.
//
// A graph has two representations. The static (default) form is pure CSR:
// two flat arrays, canonical and cache-linear. The dynamic form — entered by
// BeginUpdates or the first ApplyUpdate — keeps one mutable sorted row per
// node, so a sustained edge-update stream costs O(deg) per update instead of
// the O(n+m) full-array shift the compatibility mutators pay. Every accessor
// (Neighbors, Degree, HasEdge, Equal, traversals, view extraction) works on
// both forms; Compact returns to flat CSR.
type Graph struct {
	// offsets has length n+1 (nil for the zero-value empty graph); node v's
	// neighbours are neighbors[offsets[v]:offsets[v+1]], sorted ascending.
	// In dynamic mode only the length of offsets is meaningful (it carries
	// the node count); the adjacency lives in rows.
	offsets   []int32
	neighbors []int32
	// m is the cached undirected edge count (= len(neighbors)/2), so M() is
	// O(1) instead of the legacy sum over all adjacency lengths.
	m int
	// rows, when non-nil, is the dynamic-mode adjacency: one sorted slice
	// per node. Initially every row aliases one shared copy of the flat
	// neighbour array (three-index sliced so a growing row reallocates out
	// instead of clobbering its successor); rows mutate independently.
	rows [][]int32
	// gen counts structural mutations (AddNode, AddEdge, ApplyUpdate). It
	// backs Generation: scratch holders (ViewExtractor) capture it at bind
	// time so stale use after a mutation is a detected error, not silent
	// corruption.
	gen uint64
}

// New returns an empty graph on n isolated nodes.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	checkInt32Range(n)
	return &Graph{offsets: make([]int32, n+1)}
}

// N returns the number of nodes.
func (g *Graph) N() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// M returns the number of edges in O(1).
func (g *Graph) M() int { return g.m }

// row returns node v's sorted neighbour range (unchecked).
func (g *Graph) row(v int) []int32 {
	if g.rows != nil {
		return g.rows[v]
	}
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// Generation returns the graph's structural mutation counter: it increments
// on every AddNode and on every AddEdge/ApplyUpdate that changes the edge
// set. Slices returned by Neighbors and scratch bound to the graph (a
// ViewExtractor's arenas) are only valid for the generation they were
// obtained at; the extractor checks this and panics on stale use instead of
// silently reading torn adjacency.
func (g *Graph) Generation() uint64 { return g.gen }

// Dynamic reports whether the graph is in dynamic (mutable-rows) mode.
func (g *Graph) Dynamic() bool { return g.rows != nil }

// AddNode appends a new isolated node and returns its index.
//
// This is a compatibility mutator; bulk construction should use Builder.
func (g *Graph) AddNode() int {
	if len(g.offsets) == 0 {
		g.offsets = []int32{0}
	}
	checkInt32Range(len(g.offsets))
	g.gen++
	if g.rows != nil {
		g.offsets = append(g.offsets, 0) // dynamic mode: length-only
		g.rows = append(g.rows, nil)
		return len(g.offsets) - 2
	}
	g.offsets = append(g.offsets, g.offsets[len(g.offsets)-1])
	return len(g.offsets) - 2
}

// BeginUpdates switches the graph to dynamic mode: the flat CSR adjacency is
// copied once (O(n+m)) into one mutable sorted row per node, after which
// ApplyUpdate inserts or deletes an edge in O(deg) instead of the O(n+m)
// full-array shift AddEdge pays. Structure is unchanged, so outstanding
// Neighbors slices stay valid and the generation does not advance. A no-op
// when already dynamic.
func (g *Graph) BeginUpdates() {
	if g.rows != nil {
		return
	}
	n := g.N()
	rows := make([][]int32, n)
	buf := append([]int32(nil), g.neighbors...)
	for v := 0; v < n; v++ {
		// Three-index slice: a row's capacity ends where the next row
		// starts, so an insert into a full row reallocates that row out of
		// the shared buffer instead of overwriting its successor.
		rows[v] = buf[g.offsets[v]:g.offsets[v+1]:g.offsets[v+1]]
	}
	g.rows = rows
	g.neighbors = nil
}

// ApplyUpdate applies one dynamic edge update: add inserts the undirected
// edge {u, v}, !add removes it. It reports whether the edge set changed
// (inserting a present edge and removing an absent one are no-ops). The
// first call switches the graph to dynamic mode (one O(n+m) conversion);
// every call after that costs O(deg(u) + deg(v)). Self-loops panic, matching
// AddEdge. This is the delta path behind engine.Incremental's sustained
// update streams.
func (g *Graph) ApplyUpdate(u, v int, add bool) bool {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if g.rows == nil {
		g.BeginUpdates()
	}
	var changed bool
	if add {
		changed = g.insertHalf(u, v)
		if changed {
			g.insertHalf(v, u)
			g.m++
		}
	} else {
		changed = g.removeHalf(u, v)
		if changed {
			g.removeHalf(v, u)
			g.m--
		}
	}
	if changed {
		g.gen++
	}
	return changed
}

// insertHalf inserts v into u's sorted row; reports false if already present.
func (g *Graph) insertHalf(u, v int) bool {
	row := g.rows[u]
	i := searchInt32(row, int32(v))
	if i < len(row) && row[i] == int32(v) {
		return false
	}
	row = append(row, 0)
	copy(row[i+1:], row[i:])
	row[i] = int32(v)
	g.rows[u] = row
	return true
}

// removeHalf removes v from u's sorted row; reports false if absent.
func (g *Graph) removeHalf(u, v int) bool {
	row := g.rows[u]
	i := searchInt32(row, int32(v))
	if i >= len(row) || row[i] != int32(v) {
		return false
	}
	copy(row[i:], row[i+1:])
	g.rows[u] = row[:len(row)-1]
	return true
}

// Compact rebuilds the flat CSR arrays from the dynamic rows and leaves
// dynamic mode. Structure is unchanged (generation does not advance); a
// no-op on static graphs.
func (g *Graph) Compact() {
	if g.rows == nil {
		return
	}
	offsets, neighbors := g.flatten()
	g.offsets, g.neighbors, g.rows = offsets, neighbors, nil
}

// flatten materialises the dynamic rows as fresh flat CSR arrays.
func (g *Graph) flatten() (offsets, neighbors []int32) {
	n := g.N()
	offsets = make([]int32, n+1)
	total := int32(0)
	for v := 0; v < n; v++ {
		offsets[v] = total
		total += int32(len(g.rows[v]))
	}
	offsets[n] = total
	neighbors = make([]int32, total)
	for v := 0; v < n; v++ {
		copy(neighbors[offsets[v]:offsets[v+1]], g.rows[v])
	}
	return offsets, neighbors
}

// ensureStatic compacts a dynamic-mode graph so callers that read the flat
// CSR arrays directly (canonical-code pipeline, RawCode) see a consistent
// view. Free (one nil check) on static graphs — which views, the only graphs
// those paths ever receive on hot paths, always are.
func (g *Graph) ensureStatic() {
	if g.rows != nil {
		g.Compact()
	}
}

// AddEdge inserts the undirected edge {u, v}. It is idempotent: inserting an
// existing edge is a no-op. Self-loops are rejected because the paper's model
// uses simple graphs.
//
// This is a compatibility mutator for small post-hoc edits: each call shifts
// the flat neighbour array (O(n+m)) and invalidates slices previously
// returned by Neighbors. Bulk construction should use Builder, which freezes
// an entire edge list in O(n+m) total.
func (g *Graph) AddEdge(u, v int) {
	if g.rows != nil {
		g.ApplyUpdate(u, v, true)
		return
	}
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	if g.HasEdge(u, v) {
		return
	}
	g.gen++
	lo, hi := u, v
	if lo > hi {
		lo, hi = hi, lo
	}
	// Insertion points inside the flat array: hi goes into lo's row, lo into
	// hi's row; insLo < insHi because lo's row precedes hi's row.
	insLo := int(g.offsets[lo]) + searchInt32(g.row(lo), int32(hi))
	insHi := int(g.offsets[hi]) + searchInt32(g.row(hi), int32(lo))
	out := make([]int32, len(g.neighbors)+2)
	copy(out, g.neighbors[:insLo])
	out[insLo] = int32(hi)
	copy(out[insLo+1:], g.neighbors[insLo:insHi])
	out[insHi+1] = int32(lo)
	copy(out[insHi+2:], g.neighbors[insHi:])
	g.neighbors = out
	for w := lo + 1; w <= hi; w++ {
		g.offsets[w]++
	}
	for w := hi + 1; w < len(g.offsets); w++ {
		g.offsets[w] += 2
	}
	g.m++
}

// HasEdge reports whether the undirected edge {u, v} is present.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	// Search the smaller row.
	if g.Degree(v) < g.Degree(u) {
		u, v = v, u
	}
	row := g.row(u)
	i := searchInt32(row, int32(v))
	return i < len(row) && row[i] == int32(v)
}

// Neighbors returns the sorted adjacency list of v as a subslice of the flat
// CSR neighbour array. The returned slice is owned by the graph and must not
// be modified; it is invalidated by the compatibility mutators.
func (g *Graph) Neighbors(v int) []int32 {
	g.check(v)
	return g.row(v)
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	if g.rows != nil {
		return len(g.rows[v])
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v, n := 0, g.N(); v < n; v++ {
		if d := len(g.row(v)); d > max {
			max = d
		}
	}
	return max
}

// Edges returns all edges as ordered pairs (u, v) with u < v, sorted.
func (g *Graph) Edges() [][2]int {
	edges := make([][2]int, 0, g.m)
	for u, n := 0, g.N(); u < n; u++ {
		for _, v := range g.row(u) {
			if int32(u) < v {
				edges = append(edges, [2]int{u, int(v)})
			}
		}
	}
	return edges
}

// Clone returns a deep copy. The clone is always in static (flat CSR) form,
// even when g is dynamic, and starts at generation zero with no outstanding
// scratch bound to it.
func (g *Graph) Clone() *Graph {
	h := &Graph{m: g.m}
	if g.rows != nil {
		h.offsets, h.neighbors = g.flatten()
		return h
	}
	if g.offsets != nil {
		h.offsets = append([]int32(nil), g.offsets...)
	}
	if g.neighbors != nil {
		h.neighbors = append([]int32(nil), g.neighbors...)
	}
	return h
}

// Equal reports whether g and h are identical as indexed graphs (same node
// count and same edge set; this is equality, not isomorphism). Rows are kept
// sorted in both representations, so this is a row-wise comparison — two flat
// array comparisons when both graphs are static.
func (g *Graph) Equal(h *Graph) bool {
	n := g.N()
	if n != h.N() || g.m != h.m {
		return false
	}
	if g.rows == nil && h.rows == nil {
		// offsets[0] is always 0, so starting at 1 also keeps a zero-value
		// (nil-offsets) empty graph comparable against New(0).
		for v := 1; v <= n; v++ {
			if g.offsets[v] != h.offsets[v] {
				return false
			}
		}
		for i, u := range g.neighbors {
			if h.neighbors[i] != u {
				return false
			}
		}
		return true
	}
	for v := 0; v < n; v++ {
		gr, hr := g.row(v), h.row(v)
		if len(gr) != len(hr) {
			return false
		}
		for i, u := range gr {
			if hr[i] != u {
				return false
			}
		}
	}
	return true
}

// InducedSubgraph returns the subgraph induced on the given nodes together
// with the mapping from new indices to original node indices. The order of
// nodes determines the new indexing; duplicate nodes are rejected.
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	index := make(map[int]int32, len(nodes))
	for i, v := range nodes {
		g.check(v)
		if _, dup := index[v]; dup {
			panic(fmt.Sprintf("graph: duplicate node %d in induced subgraph", v))
		}
		index[v] = int32(i)
	}
	b := NewBuilder(len(nodes))
	for i, v := range nodes {
		for _, u := range g.row(v) {
			if j, ok := index[int(u)]; ok && int32(i) < j {
				b.AddEdge(i, int(j))
			}
		}
	}
	original := append([]int(nil), nodes...)
	return b.Build(), original
}

// Relabel returns a copy of g with node v renamed to perm[v]. perm must be a
// permutation of 0..n-1.
func (g *Graph) Relabel(perm []int) *Graph {
	n := g.N()
	if len(perm) != n {
		panic(fmt.Sprintf("graph: permutation length %d != n %d", len(perm), n))
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			panic("graph: invalid permutation")
		}
		seen[p] = true
	}
	b := NewBuilderHint(n, g.m)
	for u := 0; u < n; u++ {
		for _, v := range g.row(u) {
			if int32(u) < v {
				b.AddEdge(perm[u], perm[int(v)])
			}
		}
	}
	return b.Build()
}

// String renders a compact description, e.g. "Graph(n=4, m=3)".
func (g *Graph) String() string {
	return fmt.Sprintf("Graph(n=%d, m=%d)", g.N(), g.M())
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.N() {
		panic(fmt.Sprintf("graph: node %d out of range [0,%d)", v, g.N()))
	}
}

// searchInt32 is sort.SearchInts over an int32 slice.
func searchInt32(s []int32, v int32) int {
	return sort.Search(len(s), func(i int) bool { return s[i] >= v })
}

// MaxNodes and MaxEdges are the largest node and edge counts a Graph holds:
// node ids are int32, and so are the CSR offsets into the 2·M half-edges.
const (
	MaxNodes = 1<<31 - 2
	MaxEdges = MaxNodes / 2
)

func checkInt32Range(n int) {
	if int64(n) > MaxNodes {
		panic(fmt.Sprintf("graph: node count %d exceeds int32 representation", n))
	}
}
