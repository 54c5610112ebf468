package graph

import (
	"strconv"
	"testing"
)

func sequentialIDs(n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	return ids
}

func TestViewExtraction(t *testing.T) {
	l := UniformlyLabeled(Path(7), "u")
	in := NewInstance(l, sequentialIDs(7))
	v := ViewOf(in, 3, 1)
	if v.N() != 3 {
		t.Fatalf("view size = %d, want 3", v.N())
	}
	if v.Root != 0 {
		t.Fatalf("root index = %d, want 0", v.Root)
	}
	if v.RootID() != 3 {
		t.Fatalf("root id = %d, want 3", v.RootID())
	}
	if v.MaxIDInView() != 4 {
		t.Fatalf("max id in view = %d, want 4", v.MaxIDInView())
	}
	// Radius 0: just the node itself.
	v0 := ViewOf(in, 2, 0)
	if v0.N() != 1 || v0.RootID() != 2 {
		t.Fatalf("radius-0 view wrong: n=%d id=%d", v0.N(), v0.RootID())
	}
}

func TestObliviousViewIgnoresIDs(t *testing.T) {
	l := UniformlyLabeled(Cycle(8), "c")
	a := NewInstance(l, sequentialIDs(8))
	huge := make([]int, 8)
	for i := range huge {
		huge[i] = 1000 + 17*i
	}
	b := NewInstance(l, huge)
	for v := 0; v < 8; v++ {
		va := ViewOf(a, v, 2)
		vb := ViewOf(b, v, 2)
		if va.ObliviousCode() != vb.ObliviousCode() {
			t.Fatalf("oblivious code changed with IDs at node %d", v)
		}
		if va.Code() == vb.Code() {
			t.Fatalf("ID-aware code should differ at node %d", v)
		}
	}
}

func TestCycleViewsAllIdentical(t *testing.T) {
	// Every node of a uniformly labelled cycle has the same oblivious view:
	// the local indistinguishability the paper's Section 2 exploits.
	l := UniformlyLabeled(Cycle(12), "c")
	set := ObliviousViewSet(l, 3)
	if len(set) != 1 {
		t.Fatalf("C12 radius-3 distinct views = %d, want 1", len(set))
	}
	// Two cycles of different sizes share that single view when both are
	// long enough relative to the radius.
	l2 := UniformlyLabeled(Cycle(20), "c")
	set2 := ObliviousViewSet(l2, 3)
	for code := range set {
		if _, ok := set2[code]; !ok {
			t.Fatal("C12 and C20 radius-3 views should coincide")
		}
	}
}

func TestCoverageFraction(t *testing.T) {
	big := UniformlyLabeled(Cycle(30), "c")
	small := UniformlyLabeled(Cycle(10), "c")
	if f := CoverageFraction(big, []*Labeled{small}, 2); f != 1 {
		t.Errorf("cycle coverage = %v, want 1 (all views identical)", f)
	}
	// A path does NOT cover a cycle at its interior? Interior path views are
	// the same as cycle views; endpoints differ. Cycle views covered by path
	// interior views: fraction 1. Path covered by cycle: endpoints missing.
	cyc := UniformlyLabeled(Cycle(30), "c")
	path := UniformlyLabeled(Path(30), "c")
	if f := CoverageFraction(cyc, []*Labeled{path}, 2); f != 1 {
		t.Errorf("cycle-by-path coverage = %v, want 1", f)
	}
	f := CoverageFraction(path, []*Labeled{cyc}, 2)
	// 4 of 30 path nodes (two ends at distance <2 from an endpoint) have
	// views not present in a cycle.
	want := float64(30-4) / 30
	if f != want {
		t.Errorf("path-by-cycle coverage = %v, want %v", f, want)
	}
}

func TestViewCodeFoldsIDs(t *testing.T) {
	l := UniformlyLabeled(Path(3), "x")
	in := NewInstance(l, []int{5, 6, 7})
	v := ViewOf(in, 1, 1)
	// Same structure, renamed IDs: Code must change, ObliviousCode must not.
	in2 := NewInstance(l, []int{9, 6, 7})
	v2 := ViewOf(in2, 1, 1)
	if v.Code() == v2.Code() {
		t.Error("Code should see identifier 5 -> 9 change")
	}
	if v.ObliviousCode() != v2.ObliviousCode() {
		t.Error("ObliviousCode should not see identifier changes")
	}
	// Swapping the two symmetric endpoints' IDs yields an isomorphic
	// ID-labelled view: Code must be equal.
	in3 := NewInstance(l, []int{7, 6, 5})
	v3 := ViewOf(in3, 1, 1)
	if v.Code() != v3.Code() {
		t.Error("Code should be invariant under the view automorphism swapping endpoints")
	}
}

func TestInstanceValidation(t *testing.T) {
	l := UniformlyLabeled(Path(3), "x")
	for _, tc := range []struct {
		name string
		ids  []int
	}{
		{"duplicate", []int{1, 1, 2}},
		{"negative", []int{-1, 0, 2}},
		{"short", []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("expected panic for %s ids", tc.name)
				}
			}()
			NewInstance(l, tc.ids)
		})
	}
}

func TestStripIDs(t *testing.T) {
	l := UniformlyLabeled(Path(3), "x")
	in := NewInstance(l, []int{3, 1, 2})
	v := ViewOf(in, 0, 1).StripIDs()
	if v.IDs != nil {
		t.Fatal("StripIDs left IDs behind")
	}
	if v.Code() != v.ObliviousCode() {
		t.Fatal("stripped view Code should equal ObliviousCode")
	}
}

func TestAllObliviousViews(t *testing.T) {
	l := UniformlyLabeled(Star(5), "s")
	views := AllObliviousViews(l, 1)
	if len(views) != 5 {
		t.Fatalf("views = %d, want 5", len(views))
	}
	centre := views[0].ObliviousCode()
	leaf := views[1].ObliviousCode()
	if centre == leaf {
		t.Error("centre and leaf of star should have distinct views")
	}
	for i := 2; i < 5; i++ {
		if views[i].ObliviousCode() != leaf {
			t.Errorf("leaf %d view differs from leaf 1", i)
		}
	}
}

func TestLabeledHelpers(t *testing.T) {
	l := NewLabeled(Path(3), []Label{"b", "a", "c"})
	c := l.Clone()
	c.Labels[0] = "zzz"
	if l.Labels[0] != "b" {
		t.Error("Clone shares label storage")
	}
	sub, _ := l.InducedSubgraph([]int{1, 2})
	if sub.Labels[0] != "a" || sub.Labels[1] != "c" {
		t.Errorf("induced labels = %v", sub.Labels)
	}
	if !l.Equal(l.Clone()) {
		t.Error("clone not Equal to original")
	}
	if l.Equal(UniformlyLabeled(Path(3), "b")) {
		t.Error("different labels reported Equal")
	}
}

func TestUniformAndRandomLabels(t *testing.T) {
	g := Cycle(5)
	u := UniformlyLabeled(g, "k")
	for _, lab := range u.Labels {
		if lab != "k" {
			t.Fatal("uniform labelling broken")
		}
	}
	r1 := RandomLabels(g, []Label{"0", "1"}, 3)
	r2 := RandomLabels(g, []Label{"0", "1"}, 3)
	for i := range r1.Labels {
		if r1.Labels[i] != r2.Labels[i] {
			t.Fatal("RandomLabels not deterministic for fixed seed")
		}
	}
	for _, lab := range r1.Labels {
		if _, err := strconv.Atoi(lab); err != nil {
			t.Fatalf("unexpected label %q", lab)
		}
	}
}
