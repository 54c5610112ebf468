package graph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// RootedRefinementCode is the differential reference for
// CodeWorkspace.RefinementCode: the same isomorphism-invariant (but
// possibly incomplete) code computed by the string pipeline of canon.go,
// with the class summary and colour-pair edge profile rendered as text.
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
