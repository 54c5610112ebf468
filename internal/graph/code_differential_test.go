package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/halting"
	"repro/internal/turing"
)

// Differential check of the integer canonical pipeline on the views the
// Section 3 constructions actually produce: the pyramidal assembly (Figure 3
// / Appendix A) and the grid assembly G(M, r). The fast codes and the legacy
// string codes must induce the same equivalence over all node views — these
// are exactly the codes the engine's dedup cache keys on when the halting
// experiments run.

func diffViews(t *testing.T, l *graph.Labeled, radius, maxViewNodes int) {
	t.Helper()
	type coded struct {
		fast   graph.Code
		legacy string
	}
	var views []coded
	x := graph.NewViewExtractor(l)
	for v := 0; v < l.N(); v++ {
		view := x.At(v, radius)
		if view.N() > maxViewNodes {
			// The exact canonical search is factorial on the big symmetric
			// pivot neighbourhoods; the engine's dedup path skips them too.
			continue
		}
		views = append(views, coded{
			fast:   view.CanonCode().Clone(),
			legacy: graph.RootedCanonicalCode(view.Labeled, view.Root),
		})
	}
	if len(views) < 2 {
		t.Fatalf("corpus too small: %d usable views", len(views))
	}
	for i := range views {
		for j := i + 1; j < len(views); j++ {
			fastEq := views[i].fast.Equal(views[j].fast)
			legacyEq := views[i].legacy == views[j].legacy
			if fastEq != legacyEq {
				t.Fatalf("views %d vs %d: fast equality %v, legacy equality %v", i, j, fastEq, legacyEq)
			}
		}
	}
}

func TestPyramidViewCodesMatchLegacy(t *testing.T) {
	p := halting.Params{Machine: turing.Counter(2, '0'), R: 1, MaxSteps: 200, FragmentLimit: 8}
	asm, err := p.BuildPyramidalG()
	if err != nil {
		t.Fatal(err)
	}
	diffViews(t, asm.Labeled, 1, 40)
}

func TestGridAssemblyViewCodesMatchLegacy(t *testing.T) {
	p := halting.Params{Machine: turing.Counter(3, '0'), R: 1, MaxSteps: 200, FragmentLimit: 8}
	asm, err := p.BuildG()
	if err != nil {
		t.Fatal(err)
	}
	diffViews(t, asm.Labeled, 1, 40)
}
