package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/halting"
	"repro/internal/turing"
)

// On the pivot balls of G(M, r) and of the window graph G_W — the views the
// Section 3 generator codes by refinement, because they span the whole
// fragment collection — the integer refinement code must induce the same
// equivalence as the string code it replaced, across the machine library.
func TestRefinementCodeMatchesStringReferenceOnPivotBalls(t *testing.T) {
	type ball struct {
		name   string
		fast   graph.Code
		legacy string
	}
	var balls []ball
	add := func(name string, l *graph.Labeled, pivot int) {
		for radius := 1; radius <= 2; radius++ {
			view := graph.ObliviousViewOf(l, pivot, radius)
			if view.N() <= halting.ExactCodeLimit && radius == 1 {
				t.Fatalf("%s: pivot ball of %d nodes is below the exact-code limit", name, view.N())
			}
			balls = append(balls, ball{
				name:   name,
				fast:   view.RefinementCode().Clone(),
				legacy: graph.RootedRefinementCode(view.Labeled, view.Root),
			})
		}
	}
	for _, m := range turing.Library() {
		p := halting.Params{Machine: m, R: 1, MaxSteps: 200, FragmentLimit: 40}
		if asm, err := p.BuildG(); err == nil {
			add(m.Name+"/G", asm.Labeled, asm.Pivot)
		}
		asm, err := p.BuildWindowG()
		if err != nil {
			t.Fatal(err)
		}
		add(m.Name+"/window", asm.Labeled, asm.Pivot)
	}
	distinct := map[string]bool{}
	for i := range balls {
		distinct[string(balls[i].fast.Bytes)] = true
		for j := i + 1; j < len(balls); j++ {
			fastEq := balls[i].fast.Equal(balls[j].fast)
			if legacyEq := balls[i].legacy == balls[j].legacy; fastEq != legacyEq {
				t.Fatalf("%s vs %s: integer code equal %v, string code equal %v",
					balls[i].name, balls[j].name, fastEq, legacyEq)
			}
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("only %d distinct codes over %d balls", len(distinct), len(balls))
	}
}
