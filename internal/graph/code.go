package graph

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// This file is the integer canonical-form pipeline: the allocation-free
// replacement for a string-building individualisation-refinement, which
// stays in canon_reference_test.go as the differential reference
// (code_test.go pins the two against each other). Every caller —
// View.CanonCode, the engine's dedup cache, ObliviousViewSet, Isomorphic —
// routes through a reusable CodeWorkspace.
//
// The pipeline produces a Code: a full canonical byte encoding (equal iff
// label- and root-preserving isomorphic, exactly like the reference string)
// plus a 64-bit fingerprint of those bytes (fingerprint64, a seedless
// multiply-fold hash that reads 16 bytes per multiply). Caches key on the
// fingerprint, pick their shard by its low bits, and keep the byte code only
// to verify the rare fingerprint collision.
//
// Rooted inputs first go through the shape-specialised fast paths in
// fastpath.go (rooted paths, cycles and bounded-degree trees — the dominant
// small view shapes — get closed-form canonical codes in O(n), in a byte
// namespace disjoint from the generic encoder's). Everything else runs the
// generic search below: 1-WL refinement in cell-local rounds over an
// ordered partition, then individualisation-refinement branching where the
// colouring is not discrete, with twins pruned from the branching.
//
// RefinementCode stops after the refinement: it emits the stable
// colouring's class summary and colour-pair edge profile, an invariant that
// never separates isomorphic graphs but may merge non-isomorphic ones. Its
// codes open with 0x00 and the tag 'W', a namespace apart from the generic
// encoder (first byte uvarint(n) ≥ 1) and from the fast paths' 'P', 'C' and
// 'T', so no refinement code equals an exact code.

// Code is a canonical form of a (rooted) labelled graph. Bytes is a complete
// canonical encoding: two graphs receive equal Bytes iff they are isomorphic
// by a label-preserving (and root-preserving, when rooted) map. Fingerprint
// is Fingerprint(Bytes) — a compact cache key, the same in every process,
// whose collisions must be resolved by comparing Bytes. Every producer
// (View.RawCode, the fast paths, the generic encoder and RefinementCode)
// sets it through the one fingerprint function.
type Code struct {
	Fingerprint uint64
	Bytes       []byte
}

// Clone returns a Code with its own copy of the byte encoding. Codes handed
// out by a CodeWorkspace alias workspace memory and are only valid until the
// workspace's next use; Clone detaches them.
func (c Code) Clone() Code {
	return Code{Fingerprint: c.Fingerprint, Bytes: append([]byte(nil), c.Bytes...)}
}

// Equal reports whether two codes denote the same isomorphism class.
func (c Code) Equal(d Code) bool {
	return c.Fingerprint == d.Fingerprint && bytes.Equal(c.Bytes, d.Bytes)
}

// Fingerprint constants: wyhash's five 64-bit primes, fixed in the source.
// They are constants rather than a per-process seed (as maphash would draw)
// so fingerprints are stable across workspaces, goroutines and process
// restarts, and the recorded benchmark artifacts are reproducible.
const (
	fpSeed = 0xa0761d6478bd642f
	fpK1   = 0xe7037ed1a0b428db
	fpK2   = 0x8ebc6af09c88c6e3
	fpK3   = 0x589965cc75374cc3
	fpK4   = 0x1d8e4e27c47d124f
)

// fpMix folds the 128-bit product of a and b into 64 bits. Each result bit
// depends on every bit of both operands, unless one of them is zero.
func fpMix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// fingerprint64 is a wyhash-style multiply-fold hash of b, the scheme of the
// Go runtime's non-AES memhash fallback with fixed constants. Inputs of up
// to 16 bytes are read as two (possibly overlapping) words; longer inputs
// fold 16 bytes per multiply, in three independent lanes of 48-byte stripes
// while more than 48 bytes remain, then one lane over the rest, and the
// last 16 bytes of the input always enter the final fold. The length is
// mixed in, so inputs that share their words but differ in length still
// separate. The length classes — 0, 1–3, 4–8, 9–16, 17–48 and 49 up — are
// pinned by golden values in code_test.go. Like wyhash it does not resist
// crafted collisions (a word equal to a constant zeroes its multiply); a
// collision costs a cache one byte comparison, never a wrong verdict.
func fingerprint64(b []byte) uint64 {
	n := len(b)
	seed := uint64(fpSeed)
	var x, y uint64
	switch {
	case n == 0:
		return fpMix(fpK4, seed)
	case n < 4:
		x = uint64(b[0])<<16 | uint64(b[n>>1])<<8 | uint64(b[n-1])
	case n <= 8:
		x = uint64(binary.LittleEndian.Uint32(b))
		y = uint64(binary.LittleEndian.Uint32(b[n-4:]))
	case n <= 16:
		x = binary.LittleEndian.Uint64(b)
		y = binary.LittleEndian.Uint64(b[n-8:])
	default:
		// With no stripe to fold, s1 and s2 stay equal to seed and the
		// merge below leaves seed as it was.
		p, s1, s2 := b, seed, seed
		for len(p) > 48 {
			q := p[:48]
			seed = fpMix(binary.LittleEndian.Uint64(q)^fpK1, binary.LittleEndian.Uint64(q[8:])^seed)
			s1 = fpMix(binary.LittleEndian.Uint64(q[16:])^fpK2, binary.LittleEndian.Uint64(q[24:])^s1)
			s2 = fpMix(binary.LittleEndian.Uint64(q[32:])^fpK3, binary.LittleEndian.Uint64(q[40:])^s2)
			p = p[48:]
		}
		seed ^= s1 ^ s2
		for len(p) > 16 {
			seed = fpMix(binary.LittleEndian.Uint64(p)^fpK1, binary.LittleEndian.Uint64(p[8:])^seed)
			p = p[16:]
		}
		x = binary.LittleEndian.Uint64(b[n-16:])
		y = binary.LittleEndian.Uint64(b[n-8:])
	}
	return fpMix(fpK4^uint64(n), fpMix(x^fpK1, y^seed))
}

// Fingerprint is the exported code-fingerprint function, the same hash as
// the Fingerprint field every Code carries for its Bytes. The engine's
// verdict cache selects shards by its low bits, and its integrity guard
// re-hashes stored code bytes through it to detect corrupted entries.
func Fingerprint(b []byte) uint64 { return fingerprint64(b) }

// CodeWorkspace holds every buffer the canonical-form search needs: the
// colour arrays, the ordered partition and sort keys of the refinement, the
// encoder's output buffer and the per-depth branching frames of the
// individualisation-refinement search. All of it is reused between calls,
// so computing the code of a view allocates nothing once the workspace has
// warmed up to the largest view seen.
//
// A CodeWorkspace is not safe for concurrent use; give each worker its own
// (the engine does, via the per-worker ViewExtractor).
type CodeWorkspace struct {
	// Colouring state for the top-level call; branches use frame buffers.
	// Colours are int32 — node counts fit (the Graph representation is
	// int32-bounded) and the halved element size keeps the refinement's
	// working set cache-dense. next is the fast paths' second walk buffer.
	cur  []int32
	next []int32

	// The refinement's ordered partition: perm lists the nodes cell by cell
	// in colour order, cell c being perm[cells[c]:cells[c+1]]; a round
	// builds the next cell starts in split, and the two swap. After refine
	// returns they describe its final colouring.
	perm  []int32
	cells []int32
	split []int32
	// packed holds every node's neighbour colours packed into one word for
	// the current round, and keys a cell's members with their packed words
	// while it is sorted. nbrCols holds the neighbour colours, ascending, at
	// each node's CSR row position, for cells too wide to pack.
	packed  []uint64
	keys    []cellKey
	nbrCols []int32

	// labels is initColors' list of distinct labels.
	labels []Label

	// encNbrs is the encoder's adjacency-row scratch.
	encNbrs []int32

	// pairs is RefinementCode's colour-pair scratch, one entry per edge.
	pairs []uint64

	// Top-level output buffer; returned Codes alias it.
	buf []byte

	// rawBuf backs RawCode: kept separate from buf so a raw key survives a
	// subsequent canonical-code computation in the same workspace.
	rawBuf []byte

	// fpScratch is the fast paths' subtree-encoding arena (fastpath.go);
	// fpCount is the traversal budget that bounds shape detection on
	// ill-formed inputs.
	fpScratch []byte
	fpCount   int

	// Individualisation-refinement branching frames, one per recursion
	// depth, pre-grown so frame pointers stay stable across recursion.
	frames []canonFrame
}

// canonFrame is one search depth's state: the colouring its branches
// start from, the members of the target cell already explored (for twin
// pruning), and the best and current leaf codes.
type canonFrame struct {
	colors   []int32
	explored []int32
	best     []byte
	try      []byte
}

// cellKey is a member of the cell being sorted with its packed
// neighbour-colour list, padded to the cell's largest degree.
type cellKey struct {
	key uint64
	v   int32
}

// NewCodeWorkspace returns an empty workspace; buffers grow on first use.
func NewCodeWorkspace() *CodeWorkspace {
	return &CodeWorkspace{}
}

// GraphCode returns the canonical code of an unrooted labelled graph.
// Unrooted codes always run the generic search: the shape fast paths exploit
// the root as a fixed anchor.
func (w *CodeWorkspace) GraphCode(l *Labeled) Code {
	return w.code(l, -1)
}

// RootedCode returns the canonical code of a rooted labelled graph. The
// returned Code's bytes alias workspace memory and are valid until the
// workspace's next use; Clone them to retain.
func (w *CodeWorkspace) RootedCode(l *Labeled, root int) Code {
	if root < 0 || root >= l.N() {
		panic(fmt.Sprintf("graph: root %d out of range", root))
	}
	return w.code(l, root)
}

func (w *CodeWorkspace) code(l *Labeled, root int) Code {
	l.G.ensureStatic()
	if root >= 0 {
		if out, ok := w.fastCode(l, root, w.buf[:0]); ok {
			w.buf = out
			return Code{Fingerprint: fingerprint64(w.buf), Bytes: w.buf}
		}
	}
	return w.genericCode(l, root)
}

// RefinementCode returns an isomorphism-invariant but possibly incomplete
// code of a rooted labelled graph, from colour refinement alone: isomorphic
// rooted labelled graphs always receive equal codes and distinct codes
// certify non-isomorphism, but non-isomorphic graphs may share a code. It
// skips the individualisation search, so it stays cheap on large graphs with
// many mutually symmetric parts (such as the pivot neighbourhoods of the
// Section 3 construction, where thousands of glued fragments would make the
// exact search explode).
//
// The bytes are 0x00 and the tag 'W' (see the namespace note in the file
// comment), uvarint(n), then the stable colouring: uvarint(k) classes, each
// as its population, root flag and length-prefixed label (copied verbatim,
// so label substrings stay searchable in the code), then the edge profile —
// every unordered pair of colours joined by an edge, ascending, with its
// edge count. Colours are numbered by the refinement itself, so the code is
// invariant. The returned Code aliases workspace memory like RootedCode's.
func (w *CodeWorkspace) RefinementCode(l *Labeled, root int) Code {
	if root < 0 || root >= l.N() {
		panic(fmt.Sprintf("graph: root %d out of range", root))
	}
	l.G.ensureStatic()
	n := l.N()
	w.grow(n)
	colors := w.cur[:n]
	k := w.refine(l.G, colors, w.initColors(l, root))

	// The code is sized before it is written: the class summary copies every
	// class's label, so a pivot neighbourhood's code runs to megabytes, and
	// growing it append by append would allocate several times its length.
	// An edge-profile entry is three uvarints of at most 32 bits.
	cells := w.cells[:k+1]
	size := 2 + 2*binary.MaxVarintLen64 + 3*binary.MaxVarintLen32*l.G.M()
	for c := 0; c < k; c++ {
		size += 1 + 2*binary.MaxVarintLen64 + len(l.Labels[w.perm[cells[c]]])
	}
	if cap(w.buf) < size {
		w.buf = make([]byte, 0, size)
	}
	out := append(w.buf[:0], fastCodePrefix, refineCodeTag)
	out = binary.AppendUvarint(out, uint64(n))
	// Class summary, read off refine's final partition. Refinement only
	// splits the initial (root flag, label) classes, so any member
	// represents its class's flag and label.
	out = binary.AppendUvarint(out, uint64(k))
	for c := 0; c < k; c++ {
		out = binary.AppendUvarint(out, uint64(cells[c+1]-cells[c]))
		v := int(w.perm[cells[c]])
		flag := byte(0)
		if v == root {
			flag = 1
		}
		out = append(out, flag)
		lab := l.Labels[v]
		out = binary.AppendUvarint(out, uint64(len(lab)))
		out = append(out, lab...)
	}
	// Edge profile: one (low colour, high colour) key per edge, sorted, then
	// emitted run by run.
	if cap(w.pairs) < l.G.M() {
		w.pairs = make([]uint64, 0, l.G.M())
	}
	pairs := w.pairs[:0]
	offsets, nbrs := l.G.offsets, l.G.neighbors
	for u := 0; u < n; u++ {
		for _, v := range nbrs[offsets[u]:offsets[u+1]] {
			if int32(u) < v {
				a, b := uint64(colors[u]), uint64(colors[v])
				if a > b {
					a, b = b, a
				}
				pairs = append(pairs, a<<32|b)
			}
		}
	}
	slices.Sort(pairs)
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j] == pairs[i] {
			j++
		}
		out = binary.AppendUvarint(out, pairs[i]>>32)
		out = binary.AppendUvarint(out, pairs[i]&(1<<32-1))
		out = binary.AppendUvarint(out, uint64(j-i))
		i = j
	}
	w.pairs = pairs
	w.buf = out
	return Code{Fingerprint: fingerprint64(out), Bytes: out}
}

// genericCode is the full 1-WL + individualisation-refinement pipeline,
// bypassing the shape fast paths. It is the fallback for every input no fast
// path accepts and the differential reference the fast paths are pinned
// against (fastpath_test.go).
func (w *CodeWorkspace) genericCode(l *Labeled, root int) Code {
	n := l.N()
	w.grow(n)
	w.buf = w.buf[:0]
	if n == 0 {
		w.buf = binary.AppendUvarint(w.buf, 0)
		return Code{Fingerprint: fingerprint64(w.buf), Bytes: w.buf}
	}
	k := w.initColors(l, root)
	w.buf = w.canon(l, root, 0, k, w.cur[:n], w.buf)
	return Code{Fingerprint: fingerprint64(w.buf), Bytes: w.buf}
}

// grow sizes the per-node buffers for an n-node input. The frames slice is
// grown up front because recursion depth is bounded by n and frame pointers
// must not move while a deeper call appends; each frame sizes its own
// colouring and explored list on first use at its depth.
func (w *CodeWorkspace) grow(n int) {
	if cap(w.cur) < n {
		w.cur = make([]int32, n)
		w.next = make([]int32, n)
		w.perm = make([]int32, n)
		w.cells = make([]int32, n+1)
		w.split = make([]int32, n+1)
		w.keys = make([]cellKey, n)
		w.packed = make([]uint64, n)
		w.labels = make([]Label, 0, n)
	}
	if len(w.frames) < n+1 {
		frames := make([]canonFrame, n+1)
		copy(frames, w.frames)
		w.frames = frames
	}
}

// Prewarm sizes every workspace buffer for inputs of up to n nodes and m
// edges, so the first canonical codes of a sweep pay no growth allocations
// and back-to-back misses touch the same warm memory. The ViewExtractor
// prewarms its shared workspace with each extracted view's dimensions.
func (w *CodeWorkspace) Prewarm(n, m int) {
	w.grow(n)
	if cap(w.nbrCols) < 2*m {
		w.nbrCols = make([]int32, 2*m)
	}
}

// initColors assigns the initial colouring by (root flag, label): the root —
// when present — forms class 0, and the other nodes follow in the order of
// their labels. It numbers the distinct labels of the non-root nodes as
// they first appear — a view carries few — and ranks only those, instead
// of sorting all n nodes. This is the integer analogue of the legacy
// base-string densification: it depends only on label values and the root
// choice, so it is invariant under isomorphism.
func (w *CodeWorkspace) initColors(l *Labeled, root int) int {
	dist := w.labels[:0]
	for v, lab := range l.Labels {
		if v == root {
			continue
		}
		id := slices.Index(dist, lab)
		if id < 0 {
			id = len(dist)
			dist = append(dist, lab)
		}
		w.cur[v] = int32(id)
	}
	w.labels = dist
	// order lists the label ids by label and rank inverts it; both borrow
	// refine's partition buffers, which refine rebuilds.
	order, rank := w.split[:len(dist)], w.perm[:len(dist)]
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(dist[a], dist[b]) })
	for r, id := range order {
		rank[id] = int32(r)
	}
	base := 0
	if root >= 0 {
		w.cur[root] = 0
		base = 1
	}
	for v := range l.Labels {
		if v != root {
			w.cur[v] = int32(base) + rank[w.cur[v]]
		}
	}
	return base + len(dist)
}

// canon is the individualisation-refinement search over integer colourings:
// refine to a stable colouring; if discrete, encode; otherwise branch over
// the members of the first non-singleton cell and keep the
// lexicographically smallest byte code. colors is refined in place; k is its
// current class count.
//
// A member that is a twin of one already explored at this depth — same
// colour and N(u)∖{v} = N(v)∖{u} — is skipped: swapping the two is an
// automorphism that fixes the current colouring, so its branch yields the
// same leaf codes as the explored one, and the smallest code is unchanged.
// This keeps interchangeable leaves, such as a uniformly labelled star's,
// from costing factorial time.
func (w *CodeWorkspace) canon(l *Labeled, root, depth, k int, colors []int32, out []byte) []byte {
	k = w.refine(l.G, colors, k)
	target := w.firstNonSingletonCell(k)
	if target < 0 {
		return w.encode(l, root, colors, out)
	}
	f := &w.frames[depth]
	if cap(f.colors) < len(colors) {
		f.colors = make([]int32, len(colors))
		f.explored = make([]int32, 0, len(colors))
	}
	f.explored = f.explored[:0]
	haveBest := false
	for v := range colors {
		if int(colors[v]) != target || twinOfAny(l.G, f.explored, int32(v)) {
			continue
		}
		f.explored = append(f.explored, int32(v))
		bc := f.colors[:len(colors)]
		copy(bc, colors)
		// Individualise v: a fresh colour class below all others, keeping
		// the branch ordering deterministic (mirrors the legacy search).
		for u := range bc {
			bc[u]++
		}
		bc[v] = 0
		f.try = w.canon(l, root, depth+1, k+1, bc, f.try[:0])
		if !haveBest || bytes.Compare(f.try, f.best) < 0 {
			f.best = append(f.best[:0], f.try...)
			haveBest = true
		}
	}
	return append(out, f.best...)
}

// twinOfAny reports whether v is a twin of some node in explored.
func twinOfAny(g *Graph, explored []int32, v int32) bool {
	for _, u := range explored {
		if twins(g.row(int(u)), g.row(int(v)), u, v) {
			return true
		}
	}
	return false
}

// twins reports whether nodes u and v, with sorted adjacency rows a and b,
// have N(u)∖{v} = N(v)∖{u}: the rows match once each skips the other node.
func twins(a, b []int32, u, v int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, j := 0, 0; ; i, j = i+1, j+1 {
		if i < len(a) && a[i] == v {
			i++
		}
		if j < len(b) && b[j] == u {
			j++
		}
		if i == len(a) || j == len(b) {
			return i == len(a) && j == len(b)
		}
		if a[i] != b[j] {
			return false
		}
	}
}

// refine runs 1-WL colour refinement as cell-local rounds over an ordered
// partition (McKay and Piperno, "Practical graph isomorphism, II", 2014).
// The nodes are laid out once, cell by cell in colour order. Each round
// packs every node's neighbour colours, ascending, into one word, then
// looks only at the cells with more than one member: it sorts each by its
// members' lists (a proper prefix first) and splits it into runs of equal
// lists. When no cell splits, or every cell is a singleton, the colouring
// is stable; otherwise the cells from the first split on are renumbered
// densely in partition order and the next round starts. All lists of a
// round read the colours the round started with.
//
// The colouring is the one the round-synchronous refinement gives, which
// ranks every node by its signature — its colour, then its sorted neighbour
// colours — and numbers the signatures densely: the colour is the
// signature's first component, so a new colour ranks first by the old one,
// a singleton cell's member only shifts, and "no cell split" is "the class
// count is unchanged". Codes therefore stay byte-identical to those of the
// radix refinement kept in refine_reference_test.go, and persisted verdict
// keys stay valid.
//
// The packing is one scatter over the edges in partition order, which
// appends each node's neighbour colours in ascending order, most
// significant first and offset by one. A cell whose largest degree times
// the bit width of n exceeds 64 cannot use the packed words; it builds its
// members' lists and compares them in place. colors must be dense — every
// colour in [0, k) used — and is updated in place; the final class count is
// returned, and the final partition is left in perm and cells.
func (w *CodeWorkspace) refine(g *Graph, colors []int32, k int) int {
	n := len(colors)
	if cap(w.nbrCols) < len(g.neighbors) {
		w.nbrCols = make([]int32, len(g.neighbors))
	}
	// Lay the nodes out cell by cell: a counting sort by colour.
	perm, cells := w.perm[:n], w.cells[:k+1]
	clear(cells)
	for _, c := range colors {
		cells[c+1]++
	}
	for c := 1; c <= k; c++ {
		cells[c] += cells[c-1]
	}
	for v, c := range colors {
		perm[cells[c]] = int32(v)
		cells[c]++
	}
	copy(cells[1:], cells[:k])
	cells[0] = 0
	width := bits.Len(uint(n))
	offsets, nbrs, packed := g.offsets, g.neighbors, w.packed[:n]
	for k < n {
		clear(packed)
		for _, u := range perm {
			cu := uint64(colors[u]) + 1
			for _, v := range nbrs[offsets[u]:offsets[u+1]] {
				packed[v] = packed[v]<<width | cu
			}
		}
		next := w.split[:n+1]
		kNext, first := 0, -1
		for c := 0; c < k; c++ {
			lo, hi := int(cells[c]), int(cells[c+1])
			next[kNext] = int32(lo)
			kNext++
			if hi-lo < 2 {
				continue
			}
			before := kNext
			kNext = w.splitCell(g, colors, width, lo, hi, next, kNext)
			if first < 0 && kNext > before {
				first = before - 1
			}
		}
		if first < 0 {
			break
		}
		next[kNext] = int32(n)
		for c := first; c < kNext; c++ {
			for _, v := range perm[next[c]:next[c+1]] {
				colors[v] = int32(c)
			}
		}
		w.cells, w.split = w.split, w.cells
		cells, k = w.cells[:kNext+1], kNext
	}
	return k
}

// splitCell sorts the cell perm[lo:hi] by its members' sorted
// neighbour-colour lists and appends to next[kNext:] the position of every
// run of equal lists after the first, returning the new length of next.
func (w *CodeWorkspace) splitCell(g *Graph, colors []int32, width, lo, hi int, next []int32, kNext int) int {
	offsets, nbrs := g.offsets, g.neighbors
	cell := w.perm[lo:hi]
	maxDeg := 0
	for _, v := range cell {
		maxDeg = max(maxDeg, int(offsets[v+1]-offsets[v]))
	}
	if maxDeg*width <= 64 {
		// Padding a shorter list with zero fields puts it before every
		// longer list it is a prefix of.
		keys := w.keys[:len(cell)]
		for i, v := range cell {
			pad := width * (maxDeg - int(offsets[v+1]-offsets[v]))
			keys[i] = cellKey{key: w.packed[v] << pad, v: v}
		}
		if len(keys) <= 16 {
			for i := 1; i < len(keys); i++ {
				for j := i; j > 0 && keys[j-1].key > keys[j].key; j-- {
					keys[j-1], keys[j] = keys[j], keys[j-1]
				}
			}
		} else {
			slices.SortFunc(keys, func(a, b cellKey) int { return cmp.Compare(a.key, b.key) })
		}
		for i, kv := range keys {
			cell[i] = kv.v
			if i > 0 && kv.key != keys[i-1].key {
				next[kNext] = int32(lo + i)
				kNext++
			}
		}
		return kNext
	}
	lists := w.nbrCols
	for _, v := range cell {
		list := lists[offsets[v]:offsets[v+1]]
		for i, u := range nbrs[offsets[v]:offsets[v+1]] {
			list[i] = colors[u]
		}
		sortInt32sSmall(list)
	}
	compare := func(a, b int32) int {
		return slices.Compare(lists[offsets[a]:offsets[a+1]], lists[offsets[b]:offsets[b+1]])
	}
	slices.SortFunc(cell, compare)
	for i := 1; i < len(cell); i++ {
		if compare(cell[i-1], cell[i]) != 0 {
			next[kNext] = int32(lo + i)
			kNext++
		}
	}
	return kNext
}

// firstNonSingletonCell returns the first cell of refine's final partition
// with more than one member, or -1 when the colouring is discrete.
func (w *CodeWorkspace) firstNonSingletonCell(k int) int {
	cells := w.cells[:k+1]
	for c := 0; c < k; c++ {
		if cells[c+1]-cells[c] > 1 {
			return c
		}
	}
	return -1
}

// encode serialises the graph under a discrete colouring: node count, then
// per node (in colour order) the root flag and length-prefixed label, then
// per node the sorted adjacency as canonical positions. The encoding is
// unambiguous, so equal byte codes imply a label- and root-preserving
// isomorphism — the same guarantee as the legacy string encoder. It runs
// right after refine, whose discrete partition lists the nodes in colour
// order.
func (w *CodeWorkspace) encode(l *Labeled, root int, colors []int32, out []byte) []byte {
	n := l.N()
	order := w.perm[:n]
	out = binary.AppendUvarint(out, uint64(n))
	for _, v := range order {
		flag := byte(0)
		if int(v) == root {
			flag = 1
		}
		out = append(out, flag)
		lab := l.Labels[v]
		out = binary.AppendUvarint(out, uint64(len(lab)))
		out = append(out, lab...)
	}
	offsets, flat := l.G.offsets, l.G.neighbors
	for _, v := range order {
		nbrs := flat[offsets[v]:offsets[v+1]]
		out = binary.AppendUvarint(out, uint64(len(nbrs)))
		p := w.encNbrs[:0]
		for _, u := range nbrs {
			// The position of node u in the canonical order is its (discrete)
			// colour.
			p = append(p, colors[u])
		}
		sortInt32sSmall(p)
		w.encNbrs = p
		for _, q := range p {
			out = binary.AppendUvarint(out, uint64(q))
		}
	}
	return out
}

// sortInt32sSmall sorts an int32 slice, by insertion below 32 entries
// (adjacency rows of views are a handful of entries; stdlib dispatch costs
// more than the sort) and via the stdlib beyond.
func sortInt32sSmall(p []int32) {
	if len(p) > 32 {
		slices.Sort(p)
		return
	}
	for i := 1; i < len(p); i++ {
		for j := i; j > 0 && p[j-1] > p[j]; j-- {
			p[j-1], p[j] = p[j], p[j-1]
		}
	}
}

// Isomorphic reports whether two labelled graphs are isomorphic respecting
// labels, by comparing their canonical codes.
func Isomorphic(a, b *Labeled) bool {
	if a.N() != b.N() || a.G.M() != b.G.M() {
		return false
	}
	w := NewCodeWorkspace()
	ca := w.GraphCode(a).Clone()
	return ca.Equal(w.GraphCode(b))
}
