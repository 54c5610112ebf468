// Package family is the commands' vocabulary, graph families and deciders,
// each declared once: localsim and decided resolve every -graph and -decider
// name through it.
//
// New checks a family request against the family's range and the graph
// package's size bounds and reports the instance's node count without
// building anything, because the graph constructors panic outside their
// ranges and an oversized request must be refusable before it allocates.
// Decider labels a host for a named decider from one table, so the verdict
// cache and the store key a name's verdicts identically in both commands.
package family

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tree"
)

// New validates the size parameter n of family kind and returns the
// instance's node count with a constructor for it; nothing is allocated
// until build is called. The families are the n-node cycle (n >= 3), path,
// star and random graph, the grid of n rows and 4 columns, the complete
// binary tree of depth n and the pyramid of height n. seed drives the random
// family only: Erdős–Rényi at expected degree about 4 over a random spanning
// tree. Its near-star views are the canonical code's worst case, a poor fit
// for view deduplication.
func New(kind string, n int, seed int64) (nodes int, build func() *graph.Graph, err error) {
	var edges int // 0 where the range alone keeps the family inside the bounds
	switch kind {
	case "cycle":
		if n < 3 {
			return 0, nil, fmt.Errorf("cycle needs n >= 3, got %d", n)
		}
		nodes, edges = n, n
		build = func() *graph.Graph { return graph.Cycle(n) }
	case "path":
		if n < 1 {
			return 0, nil, fmt.Errorf("path needs n >= 1, got %d", n)
		}
		nodes, edges = n, n-1
		build = func() *graph.Graph { return graph.Path(n) }
	case "star":
		if n < 1 {
			return 0, nil, fmt.Errorf("star needs n >= 1, got %d", n)
		}
		nodes, edges = n, n-1
		build = func() *graph.Graph { return graph.Star(n) }
	case "grid":
		if n < 1 {
			return 0, nil, fmt.Errorf("grid needs n >= 1 rows, got %d", n)
		}
		rows := min(n, graph.MaxNodes) // past the bound already; keeps the counts from overflowing
		nodes, edges = 4*rows, 7*rows-4
		build = func() *graph.Graph { return graph.Grid(n, 4) }
	case "tree":
		if n < 0 {
			return 0, nil, fmt.Errorf("tree depth %d is negative", n)
		}
		nodes = 1<<(min(n, 40)+1) - 1
		edges = nodes - 1
		build = func() *graph.Graph { return graph.CompleteBinaryTree(n) }
	case "pyramid":
		if n < 0 || n > tree.MaxPyramidHeight {
			return 0, nil, fmt.Errorf("pyramid height %d out of range [0,%d]", n, tree.MaxPyramidHeight)
		}
		nodes = (1<<(2*(n+1)) - 1) / 3
		build = func() *graph.Graph { return tree.NewPyramid(n).G }
	case "random":
		if n < 1 {
			return 0, nil, fmt.Errorf("random needs n >= 1, got %d", n)
		}
		// The expected count: n-1 tree edges plus about 2n random pairs.
		nodes, edges = n, 3*min(n, graph.MaxNodes)
		build = func() *graph.Graph { return graph.Random(n, 4.0/float64(max(n-1, 1)), seed) }
	default:
		return 0, nil, fmt.Errorf("unknown graph kind %q (cycle | path | star | grid | tree | pyramid | random)", kind)
	}
	if nodes > graph.MaxNodes || edges > graph.MaxEdges {
		return 0, nil, fmt.Errorf("%s with n=%d is past the graph size bounds (%d nodes, %d edges)",
			kind, n, graph.MaxNodes, graph.MaxEdges)
	}
	return nodes, build, nil
}
