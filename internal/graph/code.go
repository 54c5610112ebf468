package graph

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
	"sort"
)

// This file is the integer canonical-form pipeline: the allocation-free
// replacement for the string-building individualisation-refinement in
// canon.go. The legacy string implementation stays as the differential
// reference (code_test.go pins the two against each other); everything on a
// hot path — View.CanonCode, the engine's dedup cache, ObliviousViewSet —
// routes through a reusable CodeWorkspace instead.
//
// The pipeline produces a Code: a full canonical byte encoding (equal iff
// label- and root-preserving isomorphic, exactly like the legacy string) plus
// a 64-bit fingerprint of those bytes (fingerprint64, a seedless
// multiply-fold hash that reads 16 bytes per multiply). Caches key on the
// fingerprint, pick their shard by its low bits, and keep the byte code only
// to verify the rare fingerprint collision.
//
// Rooted inputs first go through the shape-specialised fast paths in
// fastpath.go (rooted paths, cycles and bounded-degree trees — the dominant
// small view shapes — get closed-form canonical codes in O(n), in a byte
// namespace disjoint from the generic encoder's). Everything else runs the
// generic search below: 1-WL refinement with counting/radix rounds over the
// dense colour range, then individualisation-refinement branching where the
// colouring is not discrete.
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

// radixMaxSigLen bounds the refinement-signature length (1 + degree) for
// which the counting/radix sort runs: an LSD radix pass touches every node
// once per signature position, so skewed-degree inputs (one hub of degree
// n-1 would force n passes over all nodes) fall back to the comparison sort.
// Every view family the engine dedups is bounded-degree, far below the
// bound.
const radixMaxSigLen = 16

// CodeWorkspace holds every buffer the canonical-form search needs: the
// colour arrays, the flat refinement-signature storage, the counting and
// ordering scratch, the encoder's output buffer and the per-depth branching
// frames of the individualisation-refinement search. All of it is reused
// between calls, so computing the code of a view allocates nothing once the
// workspace has warmed up to the largest view seen.
//
// A CodeWorkspace is not safe for concurrent use; give each worker its own
// (the engine does, via the per-worker ViewExtractor).
type CodeWorkspace struct {
	// Colouring state for the top-level call; branches use frame buffers.
	// Colours and signatures are int32 — node counts fit (the Graph
	// representation is int32-bounded) and the halved element size keeps the
	// refinement loop's working set cache-dense.
	cur []int32

	// Refinement scratch: per-node signature (colour followed by the
	// neighbour colour multiset in ascending order) stored flat in sigBuf at
	// sigPos/sigLen. sigCur is the per-node write cursor of the
	// counting-based signature fill; order/order2 are the ping-pong node
	// permutations of the LSD radix rounds.
	next   []int32
	sigPos []int
	sigLen []int
	sigCur []int
	sigBuf []int32
	order  []int
	order2 []int
	counts []int

	// Persistent sorters so sort.Sort receives a pointer into the workspace
	// and no closure or interface value is allocated on the (rare)
	// comparison-sort fallback.
	initS initSorter
	sigS  sigSorter

	// Encoder scratch.
	encOrder []int
	encNbrs  []int32

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

type canonFrame struct {
	colors []int32
	best   []byte
	try    []byte
}

// NewCodeWorkspace returns an empty workspace; buffers grow on first use.
func NewCodeWorkspace() *CodeWorkspace {
	w := &CodeWorkspace{}
	w.sigS.w = w
	return w
}

// GraphCode returns the canonical code of an unrooted labelled graph — the
// integer-pipeline equivalent of CanonicalCode. Unrooted codes always run
// the generic search: the shape fast paths exploit the root as a fixed
// anchor.
func (w *CodeWorkspace) GraphCode(l *Labeled) Code {
	return w.code(l, -1)
}

// RootedCode returns the canonical code of a rooted labelled graph — the
// integer-pipeline equivalent of RootedCanonicalCode. The returned Code's
// bytes alias workspace memory and are valid until the workspace's next use;
// Clone them to retain.
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

	out := append(w.buf[:0], fastCodePrefix, refineCodeTag)
	out = binary.AppendUvarint(out, uint64(n))
	// Class summary. Refinement only splits the initial (root flag, label)
	// classes, so any member represents its class's flag and label.
	counts, members := w.counts[:k], w.encOrder[:k]
	clear(counts)
	for v, c := range colors {
		counts[c]++
		members[c] = v
	}
	out = binary.AppendUvarint(out, uint64(k))
	for c, v := range members {
		out = binary.AppendUvarint(out, uint64(counts[c]))
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
// must not move while a deeper call appends.
func (w *CodeWorkspace) grow(n int) {
	if cap(w.cur) < n {
		w.cur = make([]int32, n)
		w.next = make([]int32, n)
		w.sigPos = make([]int, n)
		w.sigLen = make([]int, n)
		w.sigCur = make([]int, n)
		w.order = make([]int, n)
		w.order2 = make([]int, n)
		w.counts = make([]int, n+2)
		w.encOrder = make([]int, n)
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
	if need := n + 2*m; cap(w.sigBuf) < need {
		w.sigBuf = make([]int32, need)
	}
}

// initColors assigns the initial colouring by (root flag, label): the root —
// when present — forms the smallest class, and the remaining classes are
// ordered by label. This is the integer analogue of the legacy base-string
// densification: it depends only on label values and the root choice, so it
// is invariant under isomorphism.
func (w *CodeWorkspace) initColors(l *Labeled, root int) int {
	n := l.N()
	// Fast path for the uniform labelling that dominates engine sweeps: the
	// root (when present) is class 0 and everything else one class — exactly
	// what the sort below produces, without sorting.
	uniform := true
	for _, lab := range l.Labels {
		if lab != l.Labels[0] {
			uniform = false
			break
		}
	}
	if uniform {
		if root < 0 || n == 1 {
			for i := 0; i < n; i++ {
				w.cur[i] = 0
			}
			return 1
		}
		for i := 0; i < n; i++ {
			w.cur[i] = 1
		}
		w.cur[root] = 0
		return 2
	}
	order := w.order[:n]
	for i := range order {
		order[i] = i
	}
	w.initS = initSorter{order: order, labels: l.Labels, root: root}
	sort.Sort(&w.initS)
	k := int32(0)
	w.cur[order[0]] = 0
	for i := 1; i < n; i++ {
		prev, v := order[i-1], order[i]
		if (v == root) != (prev == root) || l.Labels[v] != l.Labels[prev] {
			k++
		}
		w.cur[v] = k
	}
	return int(k) + 1
}

// initSorter orders nodes by (root-first, label).
type initSorter struct {
	order  []int
	labels []Label
	root   int
}

func (s *initSorter) Len() int      { return len(s.order) }
func (s *initSorter) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *initSorter) Less(i, j int) bool {
	a, b := s.order[i], s.order[j]
	if (a == s.root) != (b == s.root) {
		return a == s.root
	}
	return s.labels[a] < s.labels[b]
}

// canon is the individualisation-refinement search over integer colourings:
// refine to a stable colouring; if discrete, encode; otherwise branch over
// the members of the smallest non-singleton class and keep the
// lexicographically smallest byte code. colors is refined in place; k is its
// current class count.
func (w *CodeWorkspace) canon(l *Labeled, root, depth, k int, colors []int32, out []byte) []byte {
	k = w.refine(l.G, colors, k)
	target := w.firstNonSingletonClass(colors, k)
	if target < 0 {
		return w.encode(l, root, colors, out)
	}
	f := &w.frames[depth]
	if cap(f.colors) < len(colors) {
		f.colors = make([]int32, len(colors))
	}
	haveBest := false
	for v := range colors {
		if int(colors[v]) != target {
			continue
		}
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

// refine runs 1-WL colour refinement in counting passes over the dense
// colour range. Each round:
//
//  1. orders nodes by current colour with one counting sort;
//  2. builds every node's signature — its colour followed by its neighbour
//     colours in ascending order — WITHOUT any per-node sort: walking the
//     nodes u in ascending colour order and appending colour(u) to each
//     neighbour's signature emits every neighbour list already sorted
//     (one O(n+m) scatter, the classic partition-refinement trick);
//  3. sorts the node permutation lexicographically by signature with LSD
//     radix passes (pad-at-end sentinel smaller than every colour, so the
//     padded fixed-length order equals the shorter-prefix-first variable
//     length order the comparison sort used — the resulting colouring, and
//     hence the emitted bytes, are unchanged);
//  4. re-densifies colours along the sorted order until the class count
//     stabilises.
//
// Total cost per round is O(n + m + maxSig·(n + k)) with maxSig = 1 + max
// degree — no comparison sort, no interface dispatch, no per-node
// slices.Sort. Inputs with maxSig > radixMaxSigLen (degree-skewed hosts, not
// views) take the comparison fallback, which is the pre-counting behaviour.
// colors is updated in place; the final class count is returned.
func (w *CodeWorkspace) refine(g *Graph, colors []int32, k int) int {
	n := len(colors)
	offsets, nbrs := g.offsets, g.neighbors
	if need := n + len(nbrs); cap(w.sigBuf) < need {
		w.sigBuf = make([]int32, need)
	}
	sigBuf := w.sigBuf[:n+len(nbrs)]
	for {
		// (1) order nodes by current colour (counting sort).
		counts := w.counts[:k+1]
		for c := range counts {
			counts[c] = 0
		}
		for _, c := range colors {
			counts[c]++
		}
		sum := 0
		for c := range counts {
			counts[c], sum = sum, sum+counts[c]
		}
		order := w.order[:n]
		for v := 0; v < n; v++ {
			c := colors[v]
			order[counts[c]] = v
			counts[c]++
		}
		// (2) signature layout and sorted-neighbour fill.
		pos, maxSig := 0, 0
		for v := 0; v < n; v++ {
			w.sigPos[v] = pos
			w.sigCur[v] = pos + 1
			d := int(offsets[v+1] - offsets[v])
			w.sigLen[v] = 1 + d
			if 1+d > maxSig {
				maxSig = 1 + d
			}
			sigBuf[pos] = colors[v]
			pos += 1 + d
		}
		for _, u := range order {
			cu := colors[u]
			for _, v := range nbrs[offsets[u]:offsets[u+1]] {
				sigBuf[w.sigCur[v]] = cu
				w.sigCur[v]++
			}
		}
		// (3) lexicographic sort of the permutation by signature.
		if maxSig <= radixMaxSigLen {
			w.radixOrder(n, k, maxSig)
		} else if n <= 32 {
			for i := 1; i < n; i++ {
				for j := i; j > 0 && w.compareSig(order[j-1], order[j]) > 0; j-- {
					order[j-1], order[j] = order[j], order[j-1]
				}
			}
		} else {
			w.sigS.n = n
			sort.Sort(&w.sigS)
		}
		// (4) densify along the sorted order.
		next := w.next[:n]
		kNext := int32(0)
		next[order[0]] = 0
		for i := 1; i < n; i++ {
			if w.compareSig(order[i-1], order[i]) != 0 {
				kNext++
			}
			next[order[i]] = kNext
		}
		copy(colors, next)
		if int(kNext)+1 == k {
			return k
		}
		k = int(kNext) + 1
	}
}

// radixOrder sorts w.order[:n] lexicographically by signature with stable
// LSD counting passes, one per signature position from last to first.
// Signatures shorter than the pass position contribute the sentinel key 0,
// which sorts below every colour key c+1 — exactly the
// shorter-is-smaller-on-a-common-prefix rule of compareSig.
func (w *CodeWorkspace) radixOrder(n, k, maxSig int) {
	a, b := w.order[:n], w.order2[:n]
	sigBuf := w.sigBuf
	for p := maxSig - 1; p >= 0; p-- {
		counts := w.counts[:k+2]
		for c := range counts {
			counts[c] = 0
		}
		for _, v := range a {
			key := 0
			if p < w.sigLen[v] {
				key = int(sigBuf[w.sigPos[v]+p]) + 1
			}
			counts[key]++
		}
		sum := 0
		for c := range counts {
			counts[c], sum = sum, sum+counts[c]
		}
		for _, v := range a {
			key := 0
			if p < w.sigLen[v] {
				key = int(sigBuf[w.sigPos[v]+p]) + 1
			}
			b[counts[key]] = v
			counts[key]++
		}
		a, b = b, a
	}
	if &a[0] != &w.order[0] {
		copy(w.order[:n], a)
	}
}

// compareSig lexicographically compares two node signatures (shorter is
// smaller on a common prefix). Signatures are tuples of colour numbers, so
// the ordering is invariant under isomorphism.
func (w *CodeWorkspace) compareSig(a, b int) int {
	pa, la := w.sigPos[a], w.sigLen[a]
	pb, lb := w.sigPos[b], w.sigLen[b]
	m := la
	if lb < m {
		m = lb
	}
	buf := w.sigBuf
	for i := 0; i < m; i++ {
		if x, y := buf[pa+i], buf[pb+i]; x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return la - lb
}

// sigSorter orders the workspace's node permutation by signature (the
// comparison fallback for signature lengths beyond the radix bound).
type sigSorter struct {
	w *CodeWorkspace
	n int
}

func (s *sigSorter) Len() int { return s.n }
func (s *sigSorter) Swap(i, j int) {
	o := s.w.order
	o[i], o[j] = o[j], o[i]
}
func (s *sigSorter) Less(i, j int) bool {
	return s.w.compareSig(s.w.order[i], s.w.order[j]) < 0
}

// firstNonSingletonClass returns the smallest colour with more than one
// member, or -1 when the colouring is discrete. Slice-based counting over the
// dense colour range.
func (w *CodeWorkspace) firstNonSingletonClass(colors []int32, k int) int {
	counts := w.counts[:k]
	for c := range counts {
		counts[c] = 0
	}
	for _, c := range colors {
		counts[c]++
	}
	for c, cnt := range counts {
		if cnt > 1 {
			return c
		}
	}
	return -1
}

// encode serialises the graph under a discrete colouring: node count, then
// per node (in colour order) the root flag and length-prefixed label, then
// per node the sorted adjacency as canonical positions. The encoding is
// unambiguous, so equal byte codes imply a label- and root-preserving
// isomorphism — the same guarantee as the legacy string encoder.
func (w *CodeWorkspace) encode(l *Labeled, root int, colors []int32, out []byte) []byte {
	n := l.N()
	order := w.encOrder[:n]
	for v, c := range colors {
		order[c] = v
	}
	out = binary.AppendUvarint(out, uint64(n))
	for _, v := range order {
		flag := byte(0)
		if v == root {
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
