package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates an undirected edge list and freezes it into a CSR
// Graph in O(n + m) total via two stable counting-sort passes. It replaces
// the legacy per-edge sorted insertion (O(m·Δ) construction) on every bulk
// construction path: generators, layered trees, pyramids, Turing-table
// assemblies and the engine's message-passing view graphs.
//
// Contract:
//   - AddEdge(u, v) records the edge; both endpoints must already exist
//     (AddNode grows the node set). Self-loops panic, matching the legacy
//     mutator. Duplicate and reversed pairs are welcome — Build dedups.
//   - Build freezes the accumulated edges into a new Graph with sorted,
//     deduplicated rows. The builder remains usable afterwards (further
//     AddEdge calls followed by another Build produce a graph with the
//     union of all edges recorded so far).
//
// Node indices must fit int32 (checked); a Builder is not safe for
// concurrent use.
type Builder struct {
	n        int
	from, to []int32
}

// NewBuilder returns a builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	checkInt32Range(n)
	return &Builder{n: n}
}

// NewBuilderHint is NewBuilder with the edge buffers pre-sized for mHint
// edges, avoiding append regrowth when the final edge count is known.
func NewBuilderHint(n, mHint int) *Builder {
	b := NewBuilder(n)
	if mHint > 0 {
		b.from = make([]int32, 0, mHint)
		b.to = make([]int32, 0, mHint)
	}
	return b
}

// N returns the current node count.
func (b *Builder) N() int { return b.n }

// AddNode appends a new isolated node and returns its index.
func (b *Builder) AddNode() int {
	checkInt32Range(b.n + 1)
	b.n++
	return b.n - 1
}

// AddEdge records the undirected edge {u, v}. Duplicates are removed by
// Build; self-loops and out-of-range endpoints panic.
func (b *Builder) AddEdge(u, v int) {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at node %d", u))
	}
	b.from = append(b.from, int32(u))
	b.to = append(b.to, int32(v))
}

// AddGraphAt records every edge of g with node indices shifted by offset —
// the bulk idiom for assembling disjoint components (pyramids over table
// fragments, etc.) into one instance.
func (b *Builder) AddGraphAt(g *Graph, offset int) {
	if offset < 0 || offset+g.N() > b.n {
		panic(fmt.Sprintf("graph: component [%d,%d) out of range [0,%d)", offset, offset+g.N(), b.n))
	}
	for u, n := 0, g.N(); u < n; u++ {
		for _, v := range g.row(u) {
			if int32(u) < v {
				b.from = append(b.from, int32(u+offset))
				b.to = append(b.to, v+int32(offset))
			}
		}
	}
}

// Build freezes the recorded edges into a CSR graph in three passes over the
// half-edges: a counting pass sizes every row, a single scatter pass drops
// each half-edge into its source's row, and a compaction pass sorts rows
// that need it (generator edge streams arrive in row order, so the
// ascending-row fast path usually skips the sort) and squeezes out adjacent
// duplicates in place. Total work is O(n + m) plus O(Δ log Δ) for each row
// that arrives unsorted; memory beyond the result is two n-sized counting
// arrays.
func (b *Builder) Build() *Graph {
	n := b.n
	// The half-edge total must fit the int32 offsets (2^31-2 half-edges,
	// i.e. 2^30 undirected edges); beyond that the counting accumulator
	// would wrap silently.
	if len(b.from) > MaxEdges {
		panic(fmt.Sprintf("graph: %d recorded edges exceed the int32 CSR bound", len(b.from)))
	}
	counts := make([]int32, n)
	for _, u := range b.from {
		counts[u]++
	}
	for _, v := range b.to {
		counts[v]++
	}
	offsets := make([]int32, n+1)
	pos := make([]int32, n)
	sum := int32(0)
	for v := 0; v < n; v++ {
		offsets[v] = sum
		pos[v] = sum
		sum += counts[v]
	}
	offsets[n] = sum
	neighbors := make([]int32, sum)
	for i, u := range b.from {
		v := b.to[i]
		neighbors[pos[u]] = v
		pos[u]++
		neighbors[pos[v]] = u
		pos[v]++
	}
	// Compaction: sort each row if its half-edges arrived out of order, then
	// drop adjacent duplicates, sliding the flat array left in place (the
	// write cursor never passes the read cursor).
	w := int32(0)
	for v := 0; v < n; v++ {
		start, end := offsets[v], offsets[v+1]
		row := neighbors[start:end]
		for i := 1; i < len(row); i++ {
			if row[i-1] > row[i] {
				sortInt32Row(row)
				break
			}
		}
		offsets[v] = w
		prev := int32(-1)
		for _, u := range row {
			if u != prev {
				neighbors[w] = u
				prev = u
				w++
			}
		}
	}
	offsets[n] = w
	return &Graph{offsets: offsets, neighbors: neighbors[:w:w], m: int(w) / 2}
}

// sortInt32Row sorts one adjacency row. slices.Sort insertion-sorts the
// short rows that dominate bounded-degree instances and pdqsorts long ones,
// so the explicit small-row special case the package used to carry is gone.
func sortInt32Row(row []int32) {
	slices.Sort(row)
}

// FromEdges builds a graph on n nodes from an edge list in O(n + len(edges)).
func FromEdges(n int, edges [][2]int) *Graph {
	b := NewBuilderHint(n, len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// BuildCSR assembles a Graph directly in CSR form for families whose
// adjacency is known in closed form (layered trees, pyramids, grids). The
// caller provides the finished offsets array (length n+1, offsets[0] = 0,
// non-decreasing: node v's row is neighbors[offsets[v]:offsets[v+1]]) and a
// callback that writes the entire neighbour array, each row strictly
// ascending. This skips the Builder's edge list entirely — no recording
// pass, no counting sort, no compaction, no per-node callback dispatch — so
// construction cost is one sequential write of the neighbour array, which
// is what lets the 10^6-node pyramid build at memory speed. BuildCSR takes
// ownership of offsets; the caller must not retain it.
//
// The result is verified before the Graph is returned, by the sweep
// CSRBinder.Bind runs: every row must be strictly ascending (which rules
// out duplicates), in range, free of self-loops, and the adjacency must be
// exactly symmetric. Verification is a single fused O(n+m) sweep — symmetry
// falls out of one mirror-cursor pass, not per-edge binary searches — and
// panics on the first violation, so a buggy closed form cannot silently
// break the package's canonical-representation invariant. Allocation: the
// neighbour array, the Graph and one n-sized cursor array for the sweep.
func BuildCSR(offsets []int32, fill func(neighbors []int32)) *Graph {
	n := csrNodes(offsets)
	neighbors := make([]int32, offsets[n])
	fill(neighbors)
	g := &Graph{}
	g.bindCSR(offsets, neighbors, make([]int32, n))
	return g
}

// CSRBinder binds Graph values to caller-owned CSR arrays, for callers that
// assemble one graph after another in reused buffers (the message-passing
// runtimes' sub-hosts). It keeps the validation sweep's cursor array from
// call to call. The zero value is ready to use.
type CSRBinder struct {
	cursor []int32
}

// Bind validates offsets and neighbors exactly as BuildCSR validates its
// arrays, with len(neighbors) = offsets[n] besides, and makes *g the static
// graph they describe, in place. g then aliases both arrays, so the caller
// must not modify them while g is in use. The generation advances past g's
// previous one, so an extractor bound to g before the call must be reset.
// Bind panics on the first violation, leaving g as it was. Allocation: none
// once the cursor has grown to the largest n seen.
func (b *CSRBinder) Bind(g *Graph, offsets, neighbors []int32) {
	n := csrNodes(offsets)
	if int(offsets[n]) != len(neighbors) {
		panic(fmt.Sprintf("graph: CSRBinder.Bind offsets end at %d but neighbors holds %d", offsets[n], len(neighbors)))
	}
	if cap(b.cursor) < n {
		b.cursor = make([]int32, n)
	} else {
		b.cursor = b.cursor[:n]
		clear(b.cursor)
	}
	gen := g.gen
	g.bindCSR(offsets, neighbors, b.cursor)
	g.gen = gen + 1
}

// csrNodes checks a CSR offsets array, before anything is sized from it:
// length n+1, a leading 0, never decreasing. It returns n.
func csrNodes(offsets []int32) int {
	n := len(offsets) - 1
	if n < 0 || offsets[0] != 0 {
		panic("graph: BuildCSR offsets must have length n+1 and start at 0")
	}
	checkInt32Range(n)
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			panic(fmt.Sprintf("graph: BuildCSR offsets decrease at node %d", v))
		}
	}
	return n
}

// bindCSR runs the fused validation sweep over checked offsets and a
// neighbour array of length offsets[n], with cursor a zeroed n-entry
// scratch, then makes *g the static graph on those arrays at generation 0.
// Scanning nodes in ascending order, each row is checked strictly ascending
// / in range / loop-free, and symmetry falls out of the mirror cursors: the
// sub-diagonal prefix of each row must be consumed exactly, in order, by the
// super-diagonal entries of earlier rows.
func (g *Graph) bindCSR(offsets, neighbors, cursor []int32) {
	n := len(offsets) - 1
	for v := 0; v < n; v++ {
		vv := int32(v)
		row := neighbors[offsets[v]:offsets[v+1]]
		prev := int32(-1)
		k := int32(0)
		for _, u := range row {
			if u <= prev || u >= int32(n) {
				panic(fmt.Sprintf("graph: BuildCSR row %d not strictly ascending in range", v))
			}
			if u == vv {
				panic(fmt.Sprintf("graph: self-loop at node %d", v))
			}
			prev = u
			if u < vv {
				k++
				continue
			}
			j := offsets[u] + cursor[u]
			if j >= offsets[u+1] || neighbors[j] != vv {
				panic(fmt.Sprintf("graph: BuildCSR edge {%d,%d} has no mirror half", v, u))
			}
			cursor[u]++
		}
		if cursor[v] != k {
			panic(fmt.Sprintf("graph: BuildCSR adjacency not symmetric at node %d", v))
		}
	}
	*g = Graph{offsets: offsets, neighbors: neighbors, m: len(neighbors) / 2}
}
