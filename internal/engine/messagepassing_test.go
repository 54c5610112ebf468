package engine

import (
	"testing"

	"repro/internal/graph"
)

// TestMessagePassingAllocs bounds the heap allocations of a whole lossless
// flooding evaluation, rounds and decide stage together, on a two-letter
// cycle at n=512, t=4. Knowledge is a set of node addresses and every
// decide worker reuses its assembly buffers, so a node costs one snapshot
// per round, its merge buffers' growth, its goroutine and links, and a
// handful of allocations to assemble its view.
func TestMessagePassingAllocs(t *testing.T) {
	const n, horizon, perNode = 512, 4, 40
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
