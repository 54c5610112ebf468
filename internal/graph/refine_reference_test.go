package graph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// radixRefiner is the differential reference for CodeWorkspace.initColors
// and CodeWorkspace.refine: the round-synchronous 1-WL refinement that
// counting-sorts every node by colour and radix-sorts all of them by
// signature every round, with the sort-based initial colouring beside it.
// It is the production code these two replaced, kept verbatim in logic;
// FuzzRefineMatchesReference requires the cell-local rounds to reproduce
// its colourings exactly, which is what keeps every code byte-identical.
type radixRefiner struct {
	sigPos, sigLen, sigCur []int
	sigBuf                 []int32
	order, order2, counts  []int
	next                   []int32
}

// radixMaxSigLen bounds the signature length (1 + degree) for which the
// radix passes run; longer signatures take the comparison sort.
const radixMaxSigLen = 16

func newRadixRefiner(n, m int) *radixRefiner {
	return &radixRefiner{
		sigPos: make([]int, n), sigLen: make([]int, n), sigCur: make([]int, n),
		sigBuf: make([]int32, n+2*m),
		order:  make([]int, n), order2: make([]int, n), counts: make([]int, n+2),
		next: make([]int32, n),
	}
}

// initColors ranks the nodes by (root first, label) with one sort of all
// nodes and densifies along the sorted order.
func (r *radixRefiner) initColors(l *Labeled, root int, colors []int32) int {
	n := l.N()
	order := r.order[:n]
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if (a == root) != (b == root) {
			return a == root
		}
		return l.Labels[a] < l.Labels[b]
	})
	k := int32(0)
	colors[order[0]] = 0
	for i := 1; i < n; i++ {
		prev, v := order[i-1], order[i]
		if (v == root) != (prev == root) || l.Labels[v] != l.Labels[prev] {
			k++
		}
		colors[v] = k
	}
	return int(k) + 1
}

// refine runs rounds until the class count stops changing. Each round
// orders all nodes by colour with a counting sort, fills every signature —
// colour, then neighbour colours ascending — by scattering colours in that
// order, sorts all nodes by signature (LSD radix passes, or a comparison
// sort past radixMaxSigLen) and renumbers densely along the sorted order.
func (r *radixRefiner) refine(g *Graph, colors []int32, k int) int {
	n := len(colors)
	offsets, nbrs := g.offsets, g.neighbors
	sigBuf := r.sigBuf[:n+len(nbrs)]
	for {
		counts := r.counts[:k+1]
		clear(counts)
		for _, c := range colors {
			counts[c]++
		}
		sum := 0
		for c := range counts {
			counts[c], sum = sum, sum+counts[c]
		}
		order := r.order[:n]
		for v := 0; v < n; v++ {
			c := colors[v]
			order[counts[c]] = v
			counts[c]++
		}
		pos, maxSig := 0, 0
		for v := 0; v < n; v++ {
			r.sigPos[v] = pos
			r.sigCur[v] = pos + 1
			d := int(offsets[v+1] - offsets[v])
			r.sigLen[v] = 1 + d
			maxSig = max(maxSig, 1+d)
			sigBuf[pos] = colors[v]
			pos += 1 + d
		}
		for _, u := range order {
			cu := colors[u]
			for _, v := range nbrs[offsets[u]:offsets[u+1]] {
				sigBuf[r.sigCur[v]] = cu
				r.sigCur[v]++
			}
		}
		if maxSig <= radixMaxSigLen {
			r.radixOrder(n, k, maxSig)
		} else {
			sort.Slice(order, func(i, j int) bool { return r.compareSig(order[i], order[j]) < 0 })
		}
		next := r.next[:n]
		kNext := int32(0)
		next[order[0]] = 0
		for i := 1; i < n; i++ {
			if r.compareSig(order[i-1], order[i]) != 0 {
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

// radixOrder sorts r.order[:n] by signature with stable LSD counting
// passes, one per signature position from last to first. A signature
// shorter than the position contributes the key 0, below every colour key
// c+1, so a proper prefix sorts first.
func (r *radixRefiner) radixOrder(n, k, maxSig int) {
	a, b := r.order[:n], r.order2[:n]
	for p := maxSig - 1; p >= 0; p-- {
		counts := r.counts[:k+2]
		clear(counts)
		key := func(v int) int {
			if p < r.sigLen[v] {
				return int(r.sigBuf[r.sigPos[v]+p]) + 1
			}
			return 0
		}
		for _, v := range a {
			counts[key(v)]++
		}
		sum := 0
		for c := range counts {
			counts[c], sum = sum, sum+counts[c]
		}
		for _, v := range a {
			b[counts[key(v)]] = v
			counts[key(v)]++
		}
		a, b = b, a
	}
	copy(r.order[:n], a)
}

// compareSig compares two signatures lexicographically, a proper prefix
// first.
func (r *radixRefiner) compareSig(a, b int) int {
	pa, la := r.sigPos[a], r.sigLen[a]
	pb, lb := r.sigPos[b], r.sigLen[b]
	for i := 0; i < min(la, lb); i++ {
		if x, y := r.sigBuf[pa+i], r.sigBuf[pb+i]; x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return la - lb
}

// RootedRefinementCode is the differential reference for
// CodeWorkspace.RefinementCode: the same isomorphism-invariant (but
// possibly incomplete) code computed by the string pipeline of
// canon_reference_test.go, with the class summary and colour-pair edge
// profile rendered as text.
func RootedRefinementCode(l *Labeled, root int) string {
	in := newCanonInput(l, root)
	colors := refine(in.g, in.colors)
	// Class summary: per colour, its population and base signature (constant
	// within a class because refinement only splits the initial colouring).
	type classInfo struct {
		count int
		base  string
	}
	classes := make(map[int]*classInfo)
	for v, c := range colors {
		info := classes[c]
		if info == nil {
			info = &classInfo{base: in.base[v]}
			classes[c] = info
		}
		info.count++
	}
	// Edge profile: counts of unordered colour pairs.
	edgePairs := make(map[[2]int]int)
	for u := 0; u < in.g.N(); u++ {
		for _, v := range in.g.Neighbors(u) {
			if int32(u) < v {
				a, b := colors[u], colors[v]
				if a > b {
					a, b = b, a
				}
				edgePairs[[2]int{a, b}]++
			}
		}
	}
	classKeys := make([]int, 0, len(classes))
	for c := range classes {
		classKeys = append(classKeys, c)
	}
	sort.Ints(classKeys)
	var b strings.Builder
	fmt.Fprintf(&b, "wl1:n=%d;", in.g.N())
	for _, c := range classKeys {
		fmt.Fprintf(&b, "c%d:%d:%s;", c, classes[c].count, strconv.Quote(classes[c].base))
	}
	pairKeys := make([][2]int, 0, len(edgePairs))
	for pk := range edgePairs {
		pairKeys = append(pairKeys, pk)
	}
	sort.Slice(pairKeys, func(i, j int) bool {
		if pairKeys[i][0] != pairKeys[j][0] {
			return pairKeys[i][0] < pairKeys[j][0]
		}
		return pairKeys[i][1] < pairKeys[j][1]
	})
	for _, pk := range pairKeys {
		fmt.Fprintf(&b, "e%d-%d:%d;", pk[0], pk[1], edgePairs[pk])
	}
	return b.String()
}
