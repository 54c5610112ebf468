package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// TestRenumberingOracle is the metamorphic oracle of node renumbering over
// a shared cache. An Id-oblivious decider sees only a view's isomorphism
// class, so evaluating a host and then a node-permuted copy of it through
// one ViewCache must give node perm[v] of the copy the verdict of node v of
// the original, and must decide nothing new: the copy's views are
// extracted in a different order, so their raw keys may miss, but each
// canonical key was decided in the first pass and hits. It runs on every
// scheduler that shares a cache, over an unbounded cache and a bounded one
// with room for everything.
func TestRenumberingOracle(t *testing.T) {
	ab := []graph.Label{"a", "b"}
	hosts := []struct {
		name string
		l    *graph.Labeled
	}{
		{"cycle", graph.RandomLabels(graph.Cycle(60), ab, 1)},
		{"pyramid", graph.RandomLabels(tree.NewPyramid(3).G, ab, 2)},
		{"grid", graph.RandomLabels(graph.Grid(7, 9), ab, 3)},
		{"random-tree", graph.RandomLabels(randomAttachmentTree(80, 4), ab, 5)},
	}
	// The verdict depends on the view's node, edge and label counts, so it
	// varies from node to node but is the same on isomorphic views.
	dec := Decider{Name: "renumber-oracle", Horizon: 2, Decide: func(view *graph.View) Verdict {
		as := 0
		for _, lab := range view.Labels {
			if lab == "a" {
				as++
			}
		}
		return Verdict((view.N()+2*view.G.M()+as)%3 != 0)
	}}
	caches := []struct {
		name string
		make func() *ViewCache
	}{
		{"unbounded", NewViewCache},
		{"bounded", func() *ViewCache { return NewBoundedViewCache(64 << 20) }},
	}
	for _, h := range hosts {
		perm := rand.New(rand.NewSource(int64(len(h.name)))).Perm(h.l.N())
		permuted := h.l.Relabel(perm)
		for _, sched := range []Scheduler{Sequential, Sharded, ShardedMPWith(2)} {
			for _, cc := range caches {
				t.Run(fmt.Sprintf("%s/%s/%s", h.name, sched.Name(), cc.name), func(t *testing.T) {
					cache := cc.make()
					opts := Options{Scheduler: sched, Cache: cache}
					first := EvalOblivious(dec, h.l, opts)
					if first.Err != nil {
						t.Fatalf("original: %v", first.Err)
					}
					yes := 0
					for _, v := range first.Verdicts {
						if v {
							yes++
						}
					}
					if yes == 0 || yes == len(first.Verdicts) {
						t.Fatalf("every node said %v: the oracle cannot tell nodes apart", first.Verdicts[0])
					}
					misses := cache.Stats().Misses
					if misses == 0 {
						t.Fatal("the first pass decided nothing")
					}
					second := EvalOblivious(dec, permuted, opts)
					if second.Err != nil {
						t.Fatalf("permuted: %v", second.Err)
					}
					for v, want := range first.Verdicts {
						if got := second.Verdicts[perm[v]]; got != want {
							t.Fatalf("node %d (%d in the copy): verdict %v, want %v", v, perm[v], got, want)
						}
					}
					if first.Accepted != second.Accepted {
						t.Fatalf("accepted %v on the copy, %v on the original", second.Accepted, first.Accepted)
					}
					st := cache.Stats()
					if st.Misses != misses {
						t.Fatalf("the permuted pass decided %d views anew", st.Misses-misses)
					}
					if second.Stats.Evaluated != 0 {
						t.Fatalf("the permuted pass ran the decider %d times", second.Stats.Evaluated)
					}
					if st.Evictions != 0 {
						t.Fatalf("a cache with room for everything evicted %d entries", st.Evictions)
					}
				})
			}
		}
	}
}

// randomAttachmentTree returns a random tree on n nodes: each node v > 0
// attaches to a uniformly random earlier node.
func randomAttachmentTree(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v))
	}
	return g
}
