package engine

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/tree"
)

// TestMessagePassingAllocs bounds the heap allocations of a whole lossless
// flooding evaluation, rounds and decide stage together, on a two-letter
// cycle at n=512, t=4. Knowledge is a set of node addresses, the rounds
// merge into per-worker arenas, and every decide worker reuses its assembly
// buffers, so a node costs a handful of allocations to assemble its view
// and a small share of the rounds' arena chunks.
func TestMessagePassingAllocs(t *testing.T) {
	const n, horizon, perNode = 512, 4, 8
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
