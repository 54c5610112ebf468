package family

import (
	"math"
	"testing"

	"repro/internal/graph"
)

var kinds = []string{"cycle", "path", "star", "grid", "tree", "pyramid", "random"}

// New must predict the node count of every instance it admits.
func TestNewMatchesBuild(t *testing.T) {
	for _, kind := range kinds {
		admitted := 0
		for n := -1; n <= 7; n++ {
			nodes, build, err := New(kind, n, 1)
			if err != nil {
				continue
			}
			admitted++
			if g := build(); g.N() != nodes {
				t.Fatalf("%s n=%d: New reports %d nodes, built %d", kind, n, nodes, g.N())
			}
		}
		if admitted == 0 {
			t.Fatalf("%s: no size in -1..7 admitted", kind)
		}
	}
}

// New refuses sizes outside each family's range and past the graph size
// bounds, and admits those just inside the bounds, all without building.
func TestNewBounds(t *testing.T) {
	gridRows := (graph.MaxEdges + 4) / 7 // 7r-4 edges
	cases := []struct {
		kind string
		n    int
		ok   bool
	}{
		{"cycle", 2, false},
		{"cycle", 3, true},
		{"path", 0, false},
		{"star", 0, false},
		{"grid", 0, false},
		{"random", 0, false},
		{"tree", -1, false},
		{"tree", 0, true},
		{"pyramid", -1, false},
		{"pyramid", 0, true},
		{"pyramid", 13, false},
		{"torus", 5, false},
		{"cycle", graph.MaxEdges, true},
		{"cycle", graph.MaxEdges + 1, false},
		{"path", graph.MaxNodes, false},
		{"grid", gridRows, true},
		{"grid", gridRows + 1, false},
		{"grid", math.MaxInt, false},
		{"tree", 29, true},
		{"tree", 30, false},
		{"tree", math.MaxInt, false},
		{"random", graph.MaxEdges / 3, true},
		{"random", graph.MaxEdges/3 + 1, false},
	}
	for _, c := range cases {
		if _, _, err := New(c.kind, c.n, 1); (err == nil) != c.ok {
			t.Errorf("New(%q, %d): error %v, want admitted=%v", c.kind, c.n, err, c.ok)
		}
	}
}
