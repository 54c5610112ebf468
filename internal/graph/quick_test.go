package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property: balls are monotone in the radius and bounded by the component.
func TestBallMonotoneProperty_Quick(t *testing.T) {
	property := func(seed int64, vRaw, tRaw uint8) bool {
		n := 2 + int(abs64(seed)%20)
		g := Random(n, 0.2, seed)
		v := int(vRaw) % n
		t1 := int(tRaw % 4)
		small := g.Ball(v, t1)
		big := g.Ball(v, t1+1)
		if len(small) > len(big) {
			return false
		}
		inBig := make(map[int]struct{}, len(big))
		for _, u := range big {
			inBig[u] = struct{}{}
		}
		for _, u := range small {
			if _, ok := inBig[u]; !ok {
				return false
			}
		}
		// Ball membership matches BFS distance.
		dist := g.BFSFrom(v)
		for _, u := range small {
			if dist[u] == -1 || dist[u] > t1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: views are invariant (as codes) under node renumbering of the
// host graph.
func TestViewInvarianceProperty_Quick(t *testing.T) {
	property := func(seed int64, vRaw uint8) bool {
		n := 2 + int(abs64(seed)%10)
		l := RandomLabels(Random(n, 0.3, seed), []Label{"p", "q"}, seed+1)
		v := int(vRaw) % n
		perm := rand.New(rand.NewSource(seed + 2)).Perm(n)
		relabeled := l.Relabel(perm)
		a := ObliviousViewOf(l, v, 2).ObliviousCode()
		b := ObliviousViewOf(relabeled, perm[v], 2).ObliviousCode()
		return a == b
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the refinement invariant never separates isomorphic graphs
// (soundness of the WL-1 fallback).
func TestRefinementCodeSoundProperty_Quick(t *testing.T) {
	property := func(seed int64, rootRaw uint8) bool {
		n := 2 + int(abs64(seed)%12)
		l := RandomLabels(Random(n, 0.3, seed), []Label{"x", "y", "z"}, seed+3)
		root := int(rootRaw) % n
		perm := rand.New(rand.NewSource(seed + 4)).Perm(n)
		w := NewCodeWorkspace()
		a := w.RefinementCode(l, root).Clone()
		return a.Equal(w.RefinementCode(l.Relabel(perm), perm[root]))
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: connected components partition the node set.
func TestComponentsPartitionProperty_Quick(t *testing.T) {
	property := func(seed int64) bool {
		n := 1 + int(abs64(seed)%25)
		g := New(n)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v)
			}
		}
		seen := make(map[int]int)
		for ci, comp := range g.ConnectedComponents() {
			for _, v := range comp {
				if _, dup := seen[v]; dup {
					return false
				}
				seen[v] = ci
			}
		}
		if len(seen) != n {
			return false
		}
		// Edges never cross components.
		for _, e := range g.Edges() {
			if seen[e[0]] != seen[e[1]] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: CoverageFraction is 1 whenever the host is among the covers.
func TestSelfCoverageProperty_Quick(t *testing.T) {
	property := func(seed int64, tRaw uint8) bool {
		n := 2 + int(abs64(seed)%10)
		l := RandomLabels(Random(n, 0.3, seed), []Label{"a", "b"}, seed)
		return CoverageFraction(l, []*Labeled{l}, int(tRaw%3)) == 1
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
