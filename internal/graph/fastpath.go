package graph

import (
	"bytes"
	"encoding/binary"
)

// Shape-specialised canonical-code fast paths for the dominant small
// bounded-degree view shapes: rooted paths (which include the radius-t views
// of cycle nodes — "cycle segments"), full rooted cycles, and rooted trees of
// degree at most four (the layered trees T_r and every Section 3 tree
// family). Detection is O(n) on structural isomorphism invariants only
// (node/edge counts, degrees, traversal from the root), so two isomorphic
// rooted labelled graphs always take the same path — fast or generic — and
// the codes a cache mixes are always comparable.
//
// Fast-path codes live in their own byte namespace: every code starts with
// the fastCodePrefix byte 0x00 followed by a per-shape tag. The generic
// encoder's first byte is uvarint(n) ≥ 1 for every non-empty graph and its
// empty-graph code is the single byte 0x00, so no fast-path code can collide
// with a generic code of a different (necessarily non-isomorphic) graph.
// Within a shape the encodings below are complete invariants — equal bytes
// iff label- and root-preserving isomorphic — which fastpath_test.go pins
// differentially against the generic pipeline and the reference string
// encoder over randomized families.
//
// The fast paths bypass 1-WL refinement and the individualisation search
// entirely: one traversal, closed-form orientation/ordering, one byte
// emission. They are the cache-miss path's answer to the hit side's raw-code
// layer.

const (
	// fastCodeMaxNodes bounds the inputs the fast paths consider. The AHU
	// tree encoder copies each subtree encoding into its parent, an
	// O(n·depth) byte volume that is trivial for view-sized inputs but must
	// not run on million-node hosts (RootedCode is public API); large inputs
	// take the generic search, exactly as before. 64 mirrors the engine's
	// dedup view-size cap.
	fastCodeMaxNodes = 64
	// fastCodeMaxDegree is the degree bound of the tree fast path: four
	// covers every Section 3 family (cycles, T_r, pyramids' tree skeletons,
	// G(M,r) grid rows) while keeping the per-node child frame a fixed-size
	// array with branchless sorting.
	fastCodeMaxDegree = 4
)

// fastCodePrefix opens every fast-path code; see the namespace argument in
// the file comment.
const fastCodePrefix byte = 0x00

// Per-shape tags. Distinct tags keep the three shape encoders' byte
// languages disjoint, so cross-shape collisions need no further argument
// (a path is never classified as a general tree: maxdeg ≤ 2 routes to the
// path encoder deterministically).
//
// The same 0x00 prefix also opens the colour-refinement codes of
// CodeWorkspace.RefinementCode (code.go) under their own tag 'W'. Those are
// invariants, not canonical forms, and the tag keeps them apart from every
// exact code, so the Section 3 neighbourhood sets can hold both kinds.
const (
	fastTagPath   byte = 'P'
	fastTagCycle  byte = 'C'
	fastTagTree   byte = 'T'
	refineCodeTag byte = 'W'
)

// fastCode attempts a shape-specialised canonical code of the rooted
// labelled graph, appending to out. ok is false when no fast path applies —
// the caller falls back to the generic pipeline. The emitted bytes are a
// complete rooted-labelled-isomorphism invariant within the fast-path
// namespace (see the file comment for the collision argument).
func (w *CodeWorkspace) fastCode(l *Labeled, root int, out []byte) ([]byte, bool) {
	n := l.N()
	if n == 0 || n > fastCodeMaxNodes {
		return out, false
	}
	m := l.G.M()
	switch {
	case m == n-1:
		// Candidate tree. Degree bounds and connectivity (an (n-1)-edge
		// graph is a tree iff connected) are verified during traversal.
		if maxDegreeAtMost(l.G, 2) {
			return w.pathCode(l, root, out)
		}
		if maxDegreeAtMost(l.G, fastCodeMaxDegree) {
			return w.treeCode(l, root, out)
		}
	case m == n && allDegreesExactly(l.G, 2):
		// Candidate single cycle (n edges, 2-regular ⇒ disjoint cycles);
		// the walk verifies there is exactly one.
		return w.cycleCode(l, root, out)
	}
	return out, false
}

// maxDegreeAtMost reports whether every node degree is ≤ d.
func maxDegreeAtMost(g *Graph, d int) bool {
	offsets := g.offsets
	for v := 1; v < len(offsets); v++ {
		if int(offsets[v]-offsets[v-1]) > d {
			return false
		}
	}
	return true
}

// allDegreesExactly reports whether every node degree equals d.
func allDegreesExactly(g *Graph, d int) bool {
	offsets := g.offsets
	for v := 1; v < len(offsets); v++ {
		if int(offsets[v]-offsets[v-1]) != d {
			return false
		}
	}
	return true
}

// pathCode canonises a rooted path (a tree with maximum degree ≤ 2): the
// root splits the path into at most two arms, and the canonical form is the
// root label followed by the two arm label sequences in lexicographic order
// — the closed-form "arm orientation" that replaces the generic search's
// mirror-symmetry branching. Encoding: prefix, tag, uvarint(n), root label,
// then each arm as uvarint(length) + length-prefixed labels, smaller arm
// first. Equal bytes iff the rooted labelled paths are isomorphic: the iso
// class of a rooted path is exactly (root label, multiset of arm label
// sequences).
func (w *CodeWorkspace) pathCode(l *Labeled, root int, out []byte) ([]byte, bool) {
	g := l.G
	row := g.row(root)
	var armA, armB []int32 // arm node sequences, outward from the root
	w.grow(l.N())
	visited := 1
	for i, first := range row {
		buf := w.cur[:0] // stash arms in the workspace colour scratch
		if i == 1 {
			buf = w.next[:0]
		}
		arm, ok := walkArm(g, root, first, l.N(), buf)
		if !ok {
			return out, false
		}
		if i == 0 {
			armA = arm
		} else {
			armB = arm
		}
		visited += len(arm)
	}
	if visited != l.N() {
		return out, false // disconnected: not a path from the root's view
	}
	if armB == nil || lessLabelSeq(l, armB, armA) {
		armA, armB = armB, armA
	}
	out = append(out, fastCodePrefix, fastTagPath)
	out = binary.AppendUvarint(out, uint64(l.N()))
	out = appendLabel(out, l.Labels[root])
	out = appendArm(out, l, armA)
	out = appendArm(out, l, armB)
	return out, true
}

// walkArm follows the unique unexplored direction from root through first
// until a degree-1 endpoint, appending the visited sequence to seq. ok is
// false if the walk returns to the root or exceeds budget steps (a cycle
// component — the input is not a path).
func walkArm(g *Graph, root int, first int32, budget int, seq []int32) ([]int32, bool) {
	prev, cur := int32(root), first
	for {
		if cur == int32(root) || len(seq) >= budget {
			return nil, false
		}
		seq = append(seq, cur)
		row := g.row(int(cur))
		if len(row) == 1 {
			return seq, true
		}
		nxt := row[0]
		if nxt == prev {
			nxt = row[1]
		}
		prev, cur = cur, nxt
	}
}

// lessLabelSeq compares two node sequences by their label sequences:
// element-wise label order, shorter-on-a-common-prefix smaller.
func lessLabelSeq(l *Labeled, a, b []int32) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		la, lb := l.Labels[a[i]], l.Labels[b[i]]
		if la != lb {
			return la < lb
		}
	}
	return len(a) < len(b)
}

// appendArm emits one arm: uvarint(length) then the length-prefixed labels
// outward from the root.
func appendArm(out []byte, l *Labeled, arm []int32) []byte {
	out = binary.AppendUvarint(out, uint64(len(arm)))
	for _, v := range arm {
		out = appendLabel(out, l.Labels[v])
	}
	return out
}

// appendLabel emits one length-prefixed label.
func appendLabel(out []byte, lab Label) []byte {
	out = binary.AppendUvarint(out, uint64(len(lab)))
	return append(out, lab...)
}

// cycleCode canonises a rooted cycle. The automorphisms of a cycle fixing
// the root are the identity and the reflection through the root, so the
// canonical form is the root label followed by the lexicographically smaller
// of the two directed label sequences around the cycle. Equal bytes iff the
// rooted labelled cycles are isomorphic.
func (w *CodeWorkspace) cycleCode(l *Labeled, root int, out []byte) ([]byte, bool) {
	g := l.G
	n := l.N()
	w.grow(n)
	row := g.row(root)
	seqA, okA := walkCycle(g, root, row[0], n, w.cur[:0])
	if !okA {
		return out, false // 2-regular but more than one cycle component
	}
	seqB, _ := walkCycle(g, root, row[1], n, w.next[:0])
	if lessLabelSeq(l, seqB, seqA) {
		seqA = seqB
	}
	out = append(out, fastCodePrefix, fastTagCycle)
	out = binary.AppendUvarint(out, uint64(n))
	out = appendLabel(out, l.Labels[root])
	for _, v := range seqA {
		out = appendLabel(out, l.Labels[v])
	}
	return out, true
}

// walkCycle follows the cycle from root through first and returns the n-1
// interior nodes in walk order; ok is false when the walk closes before
// covering all n nodes (the graph is a union of several cycles).
func walkCycle(g *Graph, root int, first int32, n int, seq []int32) ([]int32, bool) {
	prev, cur := int32(root), first
	for cur != int32(root) {
		if len(seq) >= n {
			return nil, false
		}
		seq = append(seq, cur)
		row := g.row(int(cur))
		nxt := row[0]
		if nxt == prev {
			nxt = row[1]
		}
		prev, cur = cur, nxt
	}
	return seq, len(seq) == n-1
}

// treeCode canonises a rooted tree of degree ≤ 4 AHU-style: each node's
// encoding is its length-prefixed label, its child count, and its children's
// encodings in ascending byte order — computed bottom-up in one DFS, no
// refinement, no search. The encoding is prefix-unambiguous, so equal bytes
// iff the rooted labelled trees are isomorphic (the classic AHU argument).
// ok is false when the traversal reveals the input is not a tree from the
// root (a cycle elsewhere plus a detached component can satisfy m == n-1) or
// a degree exceeds the bound.
func (w *CodeWorkspace) treeCode(l *Labeled, root int, out []byte) ([]byte, bool) {
	w.fpCount = 0
	w.fpScratch = w.fpScratch[:0]
	pos, length, ok := w.subtreeCode(l, int32(root), -1)
	if !ok || w.fpCount != l.N() {
		return out, false
	}
	out = append(out, fastCodePrefix, fastTagTree)
	out = binary.AppendUvarint(out, uint64(l.N()))
	return append(out, w.fpScratch[pos:pos+length]...), true
}

// subtreeCode appends the canonical encoding of the subtree rooted at v
// (entered from parent) to the workspace scratch arena, returning its range.
// The traversal budget w.fpCount aborts on revisits: if the component
// containing the root has a cycle, the parent-skipping walk would otherwise
// not terminate.
func (w *CodeWorkspace) subtreeCode(l *Labeled, v, parent int32) (pos, length int, ok bool) {
	w.fpCount++
	if w.fpCount > l.N() {
		return 0, 0, false
	}
	row := l.G.row(int(v))
	if len(row) > fastCodeMaxDegree {
		return 0, 0, false
	}
	var cpos, clen [fastCodeMaxDegree]int
	k := 0
	for _, u := range row {
		if u == parent {
			continue
		}
		cp, cl, cok := w.subtreeCode(l, u, v)
		if !cok {
			return 0, 0, false
		}
		// Insertion into ascending byte order among the ≤ 4 siblings.
		j := k
		for j > 0 && bytes.Compare(w.fpScratch[cp:cp+cl], w.fpScratch[cpos[j-1]:cpos[j-1]+clen[j-1]]) < 0 {
			cpos[j], clen[j] = cpos[j-1], clen[j-1]
			j--
		}
		cpos[j], clen[j] = cp, cl
		k++
	}
	pos = len(w.fpScratch)
	w.fpScratch = appendLabel(w.fpScratch, l.Labels[v])
	w.fpScratch = binary.AppendUvarint(w.fpScratch, uint64(k))
	for i := 0; i < k; i++ {
		w.fpScratch = append(w.fpScratch, w.fpScratch[cpos[i]:cpos[i]+clen[i]]...)
	}
	return pos, len(w.fpScratch) - pos, true
}
