package engine

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// TestMessagePassingAllocs bounds the heap allocations of a whole lossless
// flooding evaluation, rounds and decide stage together, on a two-letter
// cycle at n=512, t=4. Knowledge is a set of node addresses, the rounds
// merge into per-worker arenas, and every decide worker assembles its
// sub-hosts in reused buffers bound in place, so a node costs a small share
// of the rounds' arena chunks and nothing to assemble its view: under one
// allocation per node in all (0.1 at the time of writing; 3.1 when each
// sub-host went through BuildCSR).
func TestMessagePassingAllocs(t *testing.T) {
	const n, horizon, perNode = 512, 4, 1
	l := graph.RandomLabels(graph.Cycle(n), []graph.Label{"a", "b"}, 1)
	dec := cheapDecider(horizon)
	allocs := testing.AllocsPerRun(5, func() {
		if out := EvalOblivious(dec, l, Options{Scheduler: MessagePassing}); out.Err != nil {
			t.Fatal(out.Err)
		}
	})
	if got := allocs / n; got > perNode {
		t.Errorf("flooding evaluation: %.1f allocations per node, want at most %d", got, perNode)
	}
	t.Logf("%.1f allocations per node", allocs/n)
}

// TestShardedMPAllocs bounds the heap allocations of a whole lossless
// ShardedMP evaluation with dedup, on the uniform pyramid h=7 cut into two
// level-contiguous shards at t=1, which import 13,802 ghosts. Ghost
// records are sized from the ring schedule, each ring's rows share one
// arena, and the sub-host is bound in place, so the run makes well under
// 0.1 allocations per ghost (0.04 at the time of writing; 1.05 with a row
// allocation per ghost).
func TestShardedMPAllocs(t *testing.T) {
	const perGhost = 0.1
	l := graph.UniformlyLabeled(tree.NewPyramid(7).G, "")
	opts := Options{Scheduler: ShardedMPPartitioned(2, graph.PartitionLevelContiguous), Dedup: true}
	ghosts := 0
	allocs := testing.AllocsPerRun(5, func() {
		out := EvalOblivious(cheapDecider(1), l, opts)
		if out.Err != nil {
			t.Fatal(out.Err)
		}
		ghosts = out.Stats.GhostNodes
	})
	if ghosts == 0 {
		t.Fatal("the evaluation imported no ghosts")
	}
	if got := allocs / float64(ghosts); got >= perGhost {
		t.Errorf("sharded evaluation: %.3f allocations per ghost over %d ghosts, want under %g", got, ghosts, perGhost)
	}
	t.Logf("%.3f allocations per ghost over %d ghosts", allocs/float64(ghosts), ghosts)
}

// TestFloodingCountsClosedForm pins lossless flooding's traffic to its
// closed forms. Every directed edge carries one message per round, 2m·t in
// all, and the message u→w of round r carries u's round-r knowledge, the
// ball B(u, r), so the knowledge units are Σ_{r<t} Σ_v deg(v)·|B(v, r)|.
// Ball sizes come from a ViewExtractor, which shares no code with the
// protocol's tally.
func TestFloodingCountsClosedForm(t *testing.T) {
	hosts := []struct {
		name string
		l    *graph.Labeled
	}{
		{"cycle", graph.UniformlyLabeled(graph.Cycle(50), "u")},
		{"pyramid", graph.UniformlyLabeled(tree.NewPyramid(3).G, "")},
		{"random", graph.UniformlyLabeled(graph.Random(60, 0.08, 7), "u")},
	}
	for _, h := range hosts {
		g := h.l.G
		x := graph.NewViewExtractor(h.l)
		for horizon := 0; horizon <= 4; horizon++ {
			units := 0
			for r := 0; r < horizon; r++ {
				for v := 0; v < g.N(); v++ {
					units += g.Degree(v) * len(x.At(v, r).Original)
				}
			}
			out := EvalOblivious(cheapDecider(horizon), h.l, Options{Scheduler: MessagePassing})
			if out.Err != nil {
				t.Fatalf("%s t=%d: %v", h.name, horizon, out.Err)
			}
			s := out.Stats
			if want := 2 * g.M() * horizon; s.Messages != want {
				t.Errorf("%s t=%d: %d messages, want 2m·t = %d", h.name, horizon, s.Messages, want)
			}
			if s.KnowledgeUnits != units {
				t.Errorf("%s t=%d: %d knowledge units, want Σ_{r<t} Σ_v deg(v)·|B(v, r)| = %d",
					h.name, horizon, s.KnowledgeUnits, units)
			}
			if s.Rounds != horizon {
				t.Errorf("%s t=%d: %d rounds, want %d", h.name, horizon, s.Rounds, horizon)
			}
		}
	}
}

// TestShardedMPCountsClosedForm pins lossless ShardedMP's exchange to the
// balls around each shard. Shard s imports every node u it does not own
// with d(u) = dist(u, Owned(s)) ≤ t, once, as a ghost record in the ring of
// round d(u)−1 on the link from u's owner, and each nonempty ring is one
// message. The distances come from a single-source BFS from every node,
// not from the runtime's multi-source halo search; only the partition is
// the runtime's own.
func TestShardedMPCountsClosedForm(t *testing.T) {
	hosts := []struct {
		name string
		l    *graph.Labeled
	}{
		{"cycle", graph.UniformlyLabeled(graph.Cycle(50), "u")},
		{"pyramid", graph.UniformlyLabeled(tree.NewPyramid(3).G, "")},
		{"random", graph.UniformlyLabeled(graph.Random(60, 0.08, 7), "u")},
	}
	for _, h := range hosts {
		g := h.l.G
		from := make([][]int, g.N()) // from[v][u] = dist(v, u), -1 when unreachable
		for v := range from {
			from[v] = g.BFSFrom(v)
		}
		for _, strategy := range []graph.PartitionStrategy{graph.PartitionBFSBlocked, graph.PartitionLevelContiguous} {
			for p := 1; p <= 5; p++ {
				part := graph.NewPartition(g, p, strategy)
				// dist[s][u] = dist(u, Owned(s)), -1 when unreachable.
				dist := make([][]int, part.Shards())
				for s := range dist {
					dist[s] = slices.Repeat([]int{-1}, g.N())
					for _, v := range part.Owned(s) {
						for u, d := range from[v] {
							if d >= 0 && (dist[s][u] < 0 || d < dist[s][u]) {
								dist[s][u] = d
							}
						}
					}
				}
				for horizon := 0; horizon <= 4; horizon++ {
					name := fmt.Sprintf("%s %v p=%d t=%d", h.name, strategy, p, horizon)
					type ring struct{ to, from, d int }
					ghosts, perRound, rings := 0, make([]int, horizon), map[ring]bool{}
					for s := range dist {
						for u, d := range dist[s] {
							if d < 1 || d > horizon {
								continue // owned, unreachable or too far
							}
							ghosts++
							perRound[d-1]++
							rings[ring{s, part.ShardOf(u), d}] = true
						}
					}
					out := EvalOblivious(cheapDecider(horizon), h.l, Options{Scheduler: ShardedMPPartitioned(p, strategy)})
					if out.Err != nil {
						t.Fatalf("%s: %v", name, out.Err)
					}
					s := out.Stats
					if s.GhostNodes != ghosts || s.KnowledgeUnits != ghosts {
						t.Errorf("%s: GhostNodes %d, KnowledgeUnits %d, want %d ghosts", name, s.GhostNodes, s.KnowledgeUnits, ghosts)
					}
					if !slices.Equal(s.RoundGhostNodes, perRound) {
						t.Errorf("%s: RoundGhostNodes %v, want %v by distance", name, s.RoundGhostNodes, perRound)
					}
					if s.Messages != len(rings) {
						t.Errorf("%s: %d messages, want %d (shard, owner, distance) rings", name, s.Messages, len(rings))
					}
					if s.Rounds != horizon {
						t.Errorf("%s: %d rounds, want %d", name, s.Rounds, horizon)
					}
				}
			}
		}
	}
}
