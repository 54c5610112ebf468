package graph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The string-building canonical encoder that code.go replaced, kept as the
// differential reference the integer pipeline is tested against: equal
// strings iff label- and root-preserving isomorphic, by an independent
// implementation of individualisation-refinement.

// canonInput bundles what the canonical-form search needs: structure, the
// per-node base signature (label text plus root marker, which must survive
// into the final encoding), and the current colour classes.
type canonInput struct {
	g      *Graph
	base   []string // immutable per-node signature: label + root marking
	colors []int    // current colour classes, dense 0..k-1
}

// CanonicalCode returns a string that is identical for two labelled graphs if
// and only if they are isomorphic respecting labels. It implements
// individualisation-refinement: iterated colour refinement (1-WL), and where
// the colouring is not discrete, branching over the members of the first
// non-singleton class and keeping the lexicographically smallest code.
//
// Views in this codebase are small (bounded-degree balls of small radius), so
// the worst-case exponential branching is never a concern in practice.
func CanonicalCode(l *Labeled) string {
	in := newCanonInput(l, -1)
	return canonicalCode(in)
}

// RootedCanonicalCode is CanonicalCode with a distinguished root node: two
// rooted labelled graphs get the same code iff there is a label-preserving
// isomorphism mapping root to root. This is the comparison underlying
// Id-oblivious algorithms, whose output is a function of exactly this code.
func RootedCanonicalCode(l *Labeled, root int) string {
	if root < 0 || root >= l.N() {
		panic(fmt.Sprintf("graph: root %d out of range", root))
	}
	return canonicalCode(newCanonInput(l, root))
}

func newCanonInput(l *Labeled, root int) canonInput {
	n := l.N()
	base := make([]string, n)
	for v, lab := range l.Labels {
		marker := "."
		if v == root {
			marker = "R"
		}
		base[v] = marker + "\x00" + lab
	}
	colors, _ := densify(base)
	return canonInput{g: l.G, base: base, colors: colors}
}

// refine runs colour refinement (1-dimensional Weisfeiler-Leman) until the
// colouring stabilises. It returns the refined colouring with dense classes.
func refine(g *Graph, colors []int) []int {
	n := g.N()
	cur := append([]int(nil), colors...)
	for {
		signatures := make([]string, n)
		for v := 0; v < n; v++ {
			nbrColors := make([]int, 0, g.Degree(v))
			for _, u := range g.Neighbors(v) {
				nbrColors = append(nbrColors, cur[u])
			}
			sort.Ints(nbrColors)
			var b strings.Builder
			b.WriteString(strconv.Itoa(cur[v]))
			b.WriteByte('|')
			for _, c := range nbrColors {
				b.WriteString(strconv.Itoa(c))
				b.WriteByte(',')
			}
			signatures[v] = b.String()
		}
		next, classes := densify(signatures)
		if classes == countClasses(cur) {
			return next
		}
		cur = next
	}
}

// densify maps arbitrary signature strings to dense colour indices ordered by
// signature, preserving determinism.
func densify(signatures []string) ([]int, int) {
	uniq := append([]string(nil), signatures...)
	sort.Strings(uniq)
	index := make(map[string]int, len(uniq))
	for _, s := range uniq {
		if _, ok := index[s]; !ok {
			index[s] = len(index)
		}
	}
	out := make([]int, len(signatures))
	for v, s := range signatures {
		out[v] = index[s]
	}
	return out, len(index)
}

// countClasses returns the number of colour classes. Colourings here are
// always dense (densify and the individualisation step both preserve
// density), so the count is one past the largest colour — no map needed.
func countClasses(colors []int) int {
	k := 0
	for _, c := range colors {
		if c >= k {
			k = c + 1
		}
	}
	return k
}

// canonicalCode performs the individualisation-refinement search.
func canonicalCode(in canonInput) string {
	colors := refine(in.g, in.colors)
	target := firstNonSingleton(colors)
	if target == -1 {
		return encodeByColorOrder(in.g, in.base, colors)
	}
	best := ""
	for v := range colors {
		if colors[v] != target {
			continue
		}
		branch := append([]int(nil), colors...)
		// Individualise v: give it a fresh colour class below all others so
		// the branch ordering stays deterministic.
		for u := range branch {
			branch[u]++
		}
		branch[v] = 0
		code := canonicalCode(canonInput{g: in.g, base: in.base, colors: branch})
		if best == "" || code < best {
			best = code
		}
	}
	return best
}

// firstNonSingleton returns the smallest colour with more than one member, or
// -1 if the colouring is discrete. The colouring is dense, so one counting
// slice replaces the previous map-and-sort.
func firstNonSingleton(colors []int) int {
	counts := make([]int, countClasses(colors))
	for _, c := range colors {
		counts[c]++
	}
	for c, k := range counts {
		if k > 1 {
			return c
		}
	}
	return -1
}

// encodeByColorOrder serialises the graph with nodes ordered by their (now
// discrete) colours. The code covers n, the per-node base signatures (labels
// and root marker) and the adjacency relation, so equal codes imply a
// label- and root-preserving isomorphism.
func encodeByColorOrder(g *Graph, base []string, colors []int) string {
	n := g.N()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool { return colors[order[i]] < colors[order[j]] })
	pos := make([]int, n)
	for p, v := range order {
		pos[v] = p
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d;", n)
	for _, v := range order {
		b.WriteString(strconv.Quote(base[v]))
		b.WriteByte(';')
	}
	for _, v := range order {
		nbrs := make([]int, 0, g.Degree(v))
		for _, u := range g.Neighbors(v) {
			nbrs = append(nbrs, pos[u])
		}
		sort.Ints(nbrs)
		fmt.Fprintf(&b, "e%v;", nbrs)
	}
	return b.String()
}

// RootedIsomorphic reports whether two rooted labelled graphs are isomorphic
// by a root- and label-preserving map.
func RootedIsomorphic(a *Labeled, rootA int, b *Labeled, rootB int) bool {
	if a.N() != b.N() || a.G.M() != b.G.M() {
		return false
	}
	w := NewCodeWorkspace()
	ca := w.RootedCode(a, rootA).Clone()
	return ca.Equal(w.RootedCode(b, rootB))
}
