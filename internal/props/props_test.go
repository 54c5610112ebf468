package props

import (
	"testing"

	"repro/internal/decide"
	"repro/internal/graph"
	"repro/internal/local"
)

func TestColoringSuiteAgainstProperty(t *testing.T) {
	if err := ColoringSuite().Check(ThreeColoring()); err != nil {
		t.Fatal(err)
	}
}

func TestColoringVerifierDecides(t *testing.T) {
	rep := decide.VerifyLDStar(ThreeColoringVerifier(), ColoringSuite())
	if !rep.OK() {
		t.Fatalf("3-colouring verifier failed: %s\n%v", rep, rep.Failures)
	}
}

func TestMISSuiteAgainstProperty(t *testing.T) {
	if err := MISSuite().Check(MIS()); err != nil {
		t.Fatal(err)
	}
}

func TestMISVerifierDecides(t *testing.T) {
	rep := decide.VerifyLDStar(MISVerifier(), MISSuite())
	if !rep.OK() {
		t.Fatalf("MIS verifier failed: %s\n%v", rep, rep.Failures)
	}
}

func TestMISRejectsBadAlphabet(t *testing.T) {
	l := graph.NewLabeled(graph.Path(2), []graph.Label{"1", "X"})
	if MIS().Contains(l) {
		t.Error("bad alphabet accepted by property")
	}
	if local.RunOblivious(MISVerifier(), l).Accepted {
		t.Error("bad alphabet accepted by verifier")
	}
}

func TestBoundedDegree(t *testing.T) {
	p := BoundedDegree(2)
	if !p.Contains(graph.UniformlyLabeled(graph.Cycle(5), "")) {
		t.Error("cycle rejected")
	}
	if p.Contains(graph.UniformlyLabeled(graph.Star(5), "")) {
		t.Error("star accepted")
	}
	v := BoundedDegreeVerifier(2)
	if !local.RunOblivious(v, graph.UniformlyLabeled(graph.Path(5), "")).Accepted {
		t.Error("path rejected by verifier")
	}
	if local.RunOblivious(v, graph.UniformlyLabeled(graph.Star(4), "")).Accepted {
		t.Error("star accepted by verifier")
	}
}

func TestTriangleFree(t *testing.T) {
	p := TriangleFree()
	if !p.Contains(graph.UniformlyLabeled(graph.Cycle(5), "")) {
		t.Error("C5 rejected")
	}
	if p.Contains(graph.UniformlyLabeled(graph.Complete(4), "")) {
		t.Error("K4 accepted")
	}
	v := TriangleFreeVerifier()
	if !local.RunOblivious(v, graph.UniformlyLabeled(graph.Grid(3, 3), "")).Accepted {
		t.Error("grid rejected by verifier")
	}
	if local.RunOblivious(v, graph.UniformlyLabeled(graph.Cycle(3), "")).Accepted {
		t.Error("triangle accepted by verifier")
	}
}

// Verifier-property agreement on random instances: the local verifier
// accepts exactly when the property holds (these properties are genuinely
// locally checkable, unlike the paper's constructions).
func TestVerifierPropertyAgreementRandom(t *testing.T) {
	colorProp, colorVer := ThreeColoring(), ThreeColoringVerifier()
	misProp, misVer := MIS(), MISVerifier()
	for seed := int64(0); seed < 40; seed++ {
		g := graph.Random(6, 0.4, seed)
		colors := graph.RandomLabels(g, []graph.Label{"0", "1", "2"}, seed+100)
		if got, want := local.RunOblivious(colorVer, colors).Accepted, colorProp.Contains(colors); got != want {
			t.Fatalf("seed %d: colouring verifier=%v property=%v", seed, got, want)
		}
		mis := graph.RandomLabels(g, []graph.Label{"0", "1"}, seed+200)
		if got, want := local.RunOblivious(misVer, mis).Accepted, misProp.Contains(mis); got != want {
			t.Fatalf("seed %d: MIS verifier=%v property=%v", seed, got, want)
		}
	}
}

func TestParentPointers(t *testing.T) {
	p := ParentPointers()
	// Path 0-1-2 rooted at 0: labels point to the neighbour toward the root.
	good := graph.NewLabeled(graph.Path(3), []graph.Label{"root", "0", "1"})
	if !p.Contains(good) {
		t.Error("valid parent pointers rejected")
	}
	noRoot := graph.NewLabeled(graph.Path(3), []graph.Label{"1", "0", "1"})
	if p.Contains(noRoot) {
		t.Error("rootless pointers accepted")
	}
	twoRoots := graph.NewLabeled(graph.Path(3), []graph.Label{"root", "0", "root"})
	if p.Contains(twoRoots) {
		t.Error("two roots accepted")
	}
	nonNeighbor := graph.NewLabeled(graph.Path(3), []graph.Label{"root", "2", "1"})
	// Node 1's pointer names node 2 which IS a neighbour; make it a true
	// non-neighbour instead.
	nonNeighbor.Labels[1] = "9"
	if p.Contains(nonNeighbor) {
		t.Error("dangling pointer accepted")
	}
}

func TestForestCertSuiteAgainstProperty(t *testing.T) {
	if err := ForestCertSuite([]int{3, 6, 9}).Check(ForestCert()); err != nil {
		t.Fatal(err)
	}
}

func TestForestCertVerifierDecides(t *testing.T) {
	rep := decide.VerifyLDStar(ForestCertVerifier(), ForestCertSuite([]int{3, 6, 9}))
	if !rep.OK() {
		t.Fatalf("forest-cert verifier failed: %s\n%v", rep, rep.Failures)
	}
}

// TestCertifyForestOnForests pins that CertifyForest yields a certificate the
// property and the verifier both accept exactly on forests — including the
// global case the plain Forest property needs a full traversal for: a big
// cycle is rejected from radius-1 views alone once certificates are present.
func TestCertifyForestOnForests(t *testing.T) {
	p, v := ForestCert(), ForestCertVerifier()
	for _, g := range []*graph.Graph{
		graph.Path(50), graph.Star(20), graph.CompleteBinaryTree(5),
	} {
		l := graph.NewLabeled(g, CertifyForest(g))
		if !p.Contains(l) || !local.RunOblivious(v, l).Accepted {
			t.Fatalf("certified forest (n=%d) rejected", g.N())
		}
	}
	for _, n := range []int{3, 4, 999, 1000} {
		cycle := graph.Cycle(n)
		l := graph.NewLabeled(cycle, CertifyForest(cycle))
		if p.Contains(l) || local.RunOblivious(v, l).Accepted {
			t.Fatalf("C%d certificate accepted", n)
		}
	}
}

// Verifier-property agreement on random labelled instances: ForestCert is
// genuinely locally checkable, so verifier and property must coincide on
// arbitrary (mostly invalid) inputs too.
func TestForestCertAgreementRandom(t *testing.T) {
	p, v := ForestCert(), ForestCertVerifier()
	for seed := int64(0); seed < 40; seed++ {
		g := graph.Random(8, 0.3, seed)
		l := graph.RandomLabels(g, []graph.Label{"0", "1", "2", "zz"}, seed+300)
		if got, want := local.RunOblivious(v, l).Accepted, p.Contains(l); got != want {
			t.Fatalf("seed %d: forest-cert verifier=%v property=%v", seed, got, want)
		}
	}
}

func TestForestSuite(t *testing.T) {
	p := Forest()
	if err := ForestSuite([]int{3, 6, 9}).Check(p); err != nil {
		t.Fatal(err)
	}
	// The property is global: a big cycle must be rejected even though every
	// ball of bounded radius looks path-like.
	if p.Contains(graph.UniformlyLabeled(graph.Cycle(1000), "")) {
		t.Error("cycle accepted as forest")
	}
	if !p.Contains(graph.UniformlyLabeled(graph.Path(1000), "")) {
		t.Error("path rejected as forest")
	}
}
