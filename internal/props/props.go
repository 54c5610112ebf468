// Package props provides the classic labelled-graph properties the paper
// uses as running examples (Section 1.2), each paired with its natural
// Id-oblivious local verifier: proper 3-colouring, maximal independent set,
// forests (acyclicity), consistent parent pointers, and leader uniqueness.
// These populate the LD* side of the experiments: properties where
// identifiers are provably unnecessary.
package props

import (
	"strconv"

	"repro/internal/decide"
	"repro/internal/graph"
	"repro/internal/local"
)

// ThreeColoring is the labelled graph property "x is a proper 3-colouring
// of G" with colour labels "0", "1", "2".
func ThreeColoring() decide.Property {
	return decide.PropertyFunc("proper-3-colouring", func(l *graph.Labeled) bool {
		for v := 0; v < l.N(); v++ {
			if !validColor(l.Labels[v]) {
				return false
			}
			for _, u := range l.G.Neighbors(v) {
				if l.Labels[u] == l.Labels[v] {
					return false
				}
			}
		}
		return true
	})
}

func validColor(lab graph.Label) bool {
	return lab == "0" || lab == "1" || lab == "2"
}

// ThreeColoringVerifier is the horizon-1 Id-oblivious verifier for
// ThreeColoring: check your colour is legal and differs from every
// neighbour's.
func ThreeColoringVerifier() local.ObliviousAlgorithm {
	return local.ObliviousFunc("3col-verifier", 1, func(view *graph.View) local.Verdict {
		if !validColor(view.Labels[view.Root]) {
			return local.No
		}
		for _, u := range view.G.Neighbors(view.Root) {
			if view.Labels[u] == view.Labels[view.Root] {
				return local.No
			}
		}
		return local.Yes
	})
}

// MIS is the property "the nodes labelled 1 form a maximal independent set".
func MIS() decide.Property {
	return decide.PropertyFunc("maximal-independent-set", func(l *graph.Labeled) bool {
		for v := 0; v < l.N(); v++ {
			in := l.Labels[v] == "1"
			anyNbrIn := false
			for _, u := range l.G.Neighbors(v) {
				if l.Labels[u] == "1" {
					anyNbrIn = true
				}
			}
			if in && anyNbrIn {
				return false // not independent
			}
			if !in && !anyNbrIn {
				return false // not maximal
			}
			if l.Labels[v] != "0" && l.Labels[v] != "1" {
				return false
			}
		}
		return true
	})
}

// MISVerifier is the horizon-1 Id-oblivious verifier for MIS.
func MISVerifier() local.ObliviousAlgorithm {
	return local.ObliviousFunc("mis-verifier", 1, func(view *graph.View) local.Verdict {
		lab := view.Labels[view.Root]
		if lab != "0" && lab != "1" {
			return local.No
		}
		anyNbrIn := false
		for _, u := range view.G.Neighbors(view.Root) {
			if view.Labels[u] == "1" {
				anyNbrIn = true
			}
		}
		if lab == "1" && anyNbrIn {
			return local.No
		}
		if lab == "0" && !anyNbrIn {
			return local.No
		}
		return local.Yes
	})
}

// BoundedDegree is the property "every node has degree at most d" — a
// hereditary property with a trivial horizon-1 verifier.
func BoundedDegree(d int) decide.Property {
	return decide.PropertyFunc("max-degree-"+strconv.Itoa(d), func(l *graph.Labeled) bool {
		return l.G.MaxDegree() <= d
	})
}

// BoundedDegreeVerifier verifies BoundedDegree at horizon 1.
func BoundedDegreeVerifier(d int) local.ObliviousAlgorithm {
	return local.ObliviousFunc("max-degree-verifier-"+strconv.Itoa(d), 1, func(view *graph.View) local.Verdict {
		return local.Verdict(view.G.Degree(view.Root) <= d)
	})
}

// TriangleFree is the property "G contains no triangle" — hereditary, with
// a horizon-1 verifier (a triangle is visible in the closed neighbourhood of
// any of its corners).
func TriangleFree() decide.Property {
	return decide.PropertyFunc("triangle-free", func(l *graph.Labeled) bool {
		for v := 0; v < l.N(); v++ {
			nbrs := l.G.Neighbors(v)
			for i := 0; i < len(nbrs); i++ {
				for j := i + 1; j < len(nbrs); j++ {
					if l.G.HasEdge(int(nbrs[i]), int(nbrs[j])) {
						return false
					}
				}
			}
		}
		return true
	})
}

// TriangleFreeVerifier verifies TriangleFree at horizon 1.
func TriangleFreeVerifier() local.ObliviousAlgorithm {
	return local.ObliviousFunc("triangle-free-verifier", 1, func(view *graph.View) local.Verdict {
		nbrs := view.G.Neighbors(view.Root)
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				if view.G.HasEdge(int(nbrs[i]), int(nbrs[j])) {
					return local.No
				}
			}
		}
		return local.Yes
	})
}

// Forest is the property "G is acyclic" (every component is a tree) — the
// package doc's running example of a property that is NOT locally
// decidable: a long cycle and a long path look identical inside every
// radius-t ball, so no local verifier exists and the property lives on the
// NLD side (a certificate — e.g. consistent parent pointers — fixes that).
// The global check runs HasCycle through its pooled graph.Traversal
// wrapper, so sweeping a suite re-uses BFS scratch across instances (and
// across goroutines) instead of allocating per call.
func Forest() decide.Property {
	return decide.PropertyFunc("forest", func(l *graph.Labeled) bool {
		return !l.G.HasCycle()
	})
}

// ForestSuite builds yes/no instances for Forest: paths and stars (and a
// two-component forest) against cycles and a unicyclic graph.
func ForestSuite(sizes []int) *decide.Suite {
	s := &decide.Suite{Name: "forest"}
	for _, n := range sizes {
		if n < 3 {
			continue
		}
		s.Yes = append(s.Yes,
			graph.UniformlyLabeled(graph.Path(n), ""),
			graph.UniformlyLabeled(graph.Star(n), ""))
		s.No = append(s.No, graph.UniformlyLabeled(graph.Cycle(n), ""))

		// Two disjoint paths: still a forest.
		b := graph.NewBuilderHint(2*n, 2*n)
		for v := 1; v < n; v++ {
			b.AddEdge(v-1, v)
			b.AddEdge(n+v-1, n+v)
		}
		s.Yes = append(s.Yes, graph.UniformlyLabeled(b.Build(), ""))

		// A path with one chord: unicyclic, not a forest.
		u := graph.NewBuilderHint(n, n)
		for v := 1; v < n; v++ {
			u.AddEdge(v-1, v)
		}
		u.AddEdge(0, n-1)
		s.No = append(s.No, graph.UniformlyLabeled(u.Build(), ""))
	}
	return s
}

// ForestCert is the certification companion to Forest: the property "x is a
// valid distance certificate for a spanning forest of G". A label is a
// non-negative integer; every edge must connect labels differing by exactly
// one, and every node with a positive label must have exactly one neighbour
// labelled one less (its parent). This is the classic NLD witness that moves
// forests from "not locally decidable" (see Forest) to locally verifiable:
// around any cycle the labels change by ±1 per step, so the cycle's maximum
// either repeats on adjacent nodes (equal labels — rejected) or has two
// parents (rejected). Hence the conjunction of the local checks holds iff G
// is a forest and x is a per-component BFS distance labelling.
func ForestCert() decide.Property {
	return decide.PropertyFunc("forest-certificate", func(l *graph.Labeled) bool {
		for v := 0; v < l.N(); v++ {
			if !validCertStep(l.Labels, l.G.Neighbors(v), l.Labels[v]) {
				return false
			}
		}
		return true
	})
}

// ForestCertVerifier is the horizon-1 Id-oblivious verifier for ForestCert:
// each node checks its own label parses, every neighbour differs by exactly
// one, and (when positive) it has a unique parent.
func ForestCertVerifier() local.ObliviousAlgorithm {
	return local.ObliviousFunc("forest-cert-verifier", 1, func(view *graph.View) local.Verdict {
		return local.Verdict(validCertStep(view.Labels, view.G.Neighbors(view.Root), view.Labels[view.Root]))
	})
}

// validCertStep is the shared local check of ForestCert: lab parses as a
// non-negative distance d, every neighbour label is d-1 or d+1, and d > 0
// implies exactly one neighbour at d-1.
func validCertStep(labels []graph.Label, nbrs []int32, lab graph.Label) bool {
	d, err := strconv.Atoi(string(lab))
	if err != nil || d < 0 {
		return false
	}
	parents := 0
	for _, u := range nbrs {
		du, err := strconv.Atoi(string(labels[u]))
		if err != nil {
			return false
		}
		switch du {
		case d - 1:
			parents++
		case d + 1:
		default:
			return false
		}
	}
	return d == 0 || parents == 1
}

// CertifyForest produces a valid ForestCert labelling for any forest: each
// component is BFS-labelled with the distance from its smallest-index node.
// On a graph with a cycle the labels are still BFS distances but the
// certificate is invalid by construction (ForestCert rejects it) — useful
// for building no-instances.
func CertifyForest(g *graph.Graph) []graph.Label {
	labels := make([]graph.Label, g.N())
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int, 0, g.N())
	for root := 0; root < g.N(); root++ {
		if dist[root] >= 0 {
			continue
		}
		dist[root] = 0
		queue = append(queue[:0], root)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			labels[v] = graph.Label(strconv.Itoa(dist[v]))
			for _, u := range g.Neighbors(v) {
				if dist[u] < 0 {
					dist[u] = dist[v] + 1
					queue = append(queue, int(u))
				}
			}
		}
	}
	return labels
}

// ForestCertSuite builds yes/no instances for ForestCert: certified paths,
// stars and multi-component forests against BFS-labelled cycles and
// corrupted certificates.
func ForestCertSuite(sizes []int) *decide.Suite {
	s := &decide.Suite{Name: "forest-certificate"}
	for _, n := range sizes {
		if n < 3 {
			continue
		}
		path := graph.Path(n)
		s.Yes = append(s.Yes,
			graph.NewLabeled(path, CertifyForest(path)),
			graph.NewLabeled(graph.Star(n), CertifyForest(graph.Star(n))))

		// Two disjoint paths: each component gets its own root.
		b := graph.NewBuilderHint(2*n, 2*n)
		for v := 1; v < n; v++ {
			b.AddEdge(v-1, v)
			b.AddEdge(n+v-1, n+v)
		}
		forest := b.Build()
		s.Yes = append(s.Yes, graph.NewLabeled(forest, CertifyForest(forest)))

		// A cycle's BFS distances are never a valid certificate.
		cycle := graph.Cycle(n)
		s.No = append(s.No, graph.NewLabeled(cycle, CertifyForest(cycle)))

		// Corrupted certificates on a genuine forest.
		bumped := CertifyForest(path)
		bumped[n/2] = graph.Label(strconv.Itoa(n + 7))
		garbled := CertifyForest(path)
		garbled[n-1] = "not-a-distance"
		s.No = append(s.No,
			graph.NewLabeled(path, bumped),
			graph.NewLabeled(path, garbled))
	}
	return s
}

// ParentPointers is the property "every node's label names the index of one
// of its neighbours (its parent) or is 'root', and exactly the structure of
// a consistent in-tree within each ball"... locality caveat: global
// rootedness is NOT locally decidable; the locally checkable part is that
// the named parent exists. This property illustrates labels that reference
// structure.
func ParentPointers() decide.Property {
	return decide.PropertyFunc("parent-pointers", func(l *graph.Labeled) bool {
		roots := 0
		for v := 0; v < l.N(); v++ {
			if l.Labels[v] == "root" {
				roots++
				continue
			}
			p, err := strconv.Atoi(string(l.Labels[v]))
			if err != nil || !contains(l.G.Neighbors(v), p) {
				return false
			}
		}
		return roots == 1
	})
}

// ColoringSuite builds yes/no instances for ThreeColoring.
func ColoringSuite() *decide.Suite {
	cycle6 := graph.Cycle(6)
	proper := graph.NewLabeled(cycle6, []graph.Label{"0", "1", "0", "1", "0", "1"})
	clash := graph.NewLabeled(cycle6, []graph.Label{"0", "0", "1", "0", "1", "0"})
	badAlpha := graph.NewLabeled(cycle6, []graph.Label{"0", "1", "5", "1", "0", "1"})

	path := graph.Path(4)
	pathProper := graph.NewLabeled(path, []graph.Label{"2", "0", "2", "1"})

	triangle := graph.Cycle(3)
	triProper := graph.NewLabeled(triangle, []graph.Label{"0", "1", "2"})
	triClash := graph.NewLabeled(triangle, []graph.Label{"0", "1", "1"})

	return &decide.Suite{
		Name: "3-colouring",
		Yes:  []*graph.Labeled{proper, pathProper, triProper},
		No:   []*graph.Labeled{clash, badAlpha, triClash},
	}
}

// MISSuite builds yes/no instances for MIS.
func MISSuite() *decide.Suite {
	c5 := graph.Cycle(5)
	yes := graph.NewLabeled(c5, []graph.Label{"1", "0", "1", "0", "0"})
	notIndependent := graph.NewLabeled(c5, []graph.Label{"1", "1", "0", "1", "0"})
	notMaximal := graph.NewLabeled(c5, []graph.Label{"1", "0", "0", "0", "0"})

	star := graph.Star(5)
	centre := graph.NewLabeled(star, []graph.Label{"1", "0", "0", "0", "0"})
	leaves := graph.NewLabeled(star, []graph.Label{"0", "1", "1", "1", "1"})

	return &decide.Suite{
		Name: "mis",
		Yes:  []*graph.Labeled{yes, centre, leaves},
		No:   []*graph.Labeled{notIndependent, notMaximal},
	}
}

func contains(s []int32, v int) bool {
	for _, x := range s {
		if int(x) == v {
			return true
		}
	}
	return false
}
