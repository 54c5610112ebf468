package local

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ids"
)

// runMP evaluates an ID-using algorithm on the engine's message-passing
// backend.
func runMP(alg Algorithm, in *graph.Instance) Outcome {
	return engine.Eval(EngineDecider(alg), in, engine.Options{Scheduler: engine.MessagePassing})
}

// viewCodeAlgorithm outputs Yes iff the full ID-aware view code satisfies a
// fixed predicate; its purpose is to make the verdict depend on every part of
// the view (structure, labels, and IDs) so that any discrepancy between the
// two runtimes shows up.
func viewCodeAlgorithm(t int) Algorithm {
	return AlgorithmFunc(fmt.Sprintf("viewhash-%d", t), t, func(view *graph.View) Verdict {
		code := view.Code()
		sum := 0
		for _, b := range []byte(code) {
			sum += int(b)
		}
		return Verdict(sum%3 != 0)
	})
}

func TestMessagePassingMatchesViewEvaluation(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path7":    graph.Path(7),
		"cycle8":   graph.Cycle(8),
		"star6":    graph.Star(6),
		"grid3x4":  graph.Grid(3, 4),
		"tree3":    graph.CompleteBinaryTree(3),
		"random20": graph.Random(20, 0.15, 3),
		"single":   graph.New(1),
	}
	for name, g := range graphs {
		for _, horizon := range []int{0, 1, 2, 3} {
			l := graph.RandomLabels(g, []graph.Label{"a", "b"}, 11)
			in := graph.NewInstance(l, ids.RandomBounded(g.N(), ids.Quadratic(), 13))
			alg := viewCodeAlgorithm(horizon)
			direct := Run(alg, in)
			mp := runMP(alg, in)
			for v := range direct.Verdicts {
				if direct.Verdicts[v] != mp.Verdicts[v] {
					t.Fatalf("%s t=%d node %d: view=%s, message-passing=%s",
						name, horizon, v, direct.Verdicts[v], mp.Verdicts[v])
				}
			}
		}
	}
}

func TestMessagePassingViewsExact(t *testing.T) {
	// The assembled view must be byte-identical (as a canonical code) to the
	// directly extracted view, for every node: the runtime must restrict the
	// flooded knowledge to the induced ball.
	g := graph.Grid(3, 5)
	l := graph.RandomLabels(g, []graph.Label{"x", "y", "z"}, 5)
	in := graph.NewInstance(l, ids.Sequential(g.N()))
	horizon := 2
	var mismatch error
	probe := AlgorithmFunc("probe", horizon, func(view *graph.View) Verdict {
		direct := graph.ViewOf(in, view.Original[view.Root], horizon)
		if direct.Code() != view.Code() {
			mismatch = fmt.Errorf("node %d: view codes differ", view.Original[view.Root])
		}
		return Yes
	})
	runMP(probe, in)
	if mismatch != nil {
		t.Fatal(mismatch)
	}
}

func TestMessagePassingOblivious(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(10), "c")
	alg := ObliviousFunc("deg2", 1, func(view *graph.View) Verdict {
		if view.IDs != nil {
			t.Error("oblivious runtime leaked IDs")
		}
		return Verdict(view.G.Degree(view.Root) == 2)
	})
	out := RunMessagePassingOblivious(alg, l)
	if !out.Accepted {
		t.Error("cycle should accept 2-regularity")
	}
	ref := RunOblivious(alg, l)
	for v := range ref.Verdicts {
		if ref.Verdicts[v] != out.Verdicts[v] {
			t.Fatalf("node %d differs between runtimes", v)
		}
	}
	empty := RunMessagePassingOblivious(alg, graph.UniformlyLabeled(graph.New(0), ""))
	if empty.Accepted || !errors.Is(empty.Err, engine.ErrEmptyInstance) {
		t.Errorf("empty graph: %+v, want ErrEmptyInstance", empty)
	}
}

func TestRuntimeEquivalence_Quick(t *testing.T) {
	property := func(seed int64, tRaw uint8) bool {
		n := 2 + int(abs(seed)%10)
		horizon := int(tRaw % 3)
		g := graph.Random(n, 0.3, seed)
		l := graph.RandomLabels(g, []graph.Label{"0", "1"}, seed+1)
		in := graph.NewInstance(l, ids.RandomBounded(n, ids.Linear(4), seed+2))
		alg := viewCodeAlgorithm(horizon)
		a := Run(alg, in)
		b := runMP(alg, in)
		for v := range a.Verdicts {
			if a.Verdicts[v] != b.Verdicts[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func abs(x int64) int64 {
	if x < 0 {
		if x == -1<<63 {
			return 1<<63 - 1
		}
		return -x
	}
	return x
}

func TestRunMessagePassingStats(t *testing.T) {
	alg := viewCodeAlgorithm(2)
	g := graph.Cycle(6)
	l := graph.UniformlyLabeled(g, "c")
	in := graph.NewInstance(l, ids.Sequential(6))
	stats := runMP(alg, in).Stats
	if stats.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", stats.Rounds)
	}
	// Each round sends one message per directed edge: 2 rounds x 12.
	if stats.Messages != 24 {
		t.Errorf("messages = %d, want 24", stats.Messages)
	}
	// Round 1 snapshots know 1 node each (12 units); round 2 snapshots know
	// 3 nodes each (36 units).
	if stats.KnowledgeUnits != 48 {
		t.Errorf("knowledge units = %d, want 48", stats.KnowledgeUnits)
	}
	// Horizon 0: no communication at all.
	zero := viewCodeAlgorithm(0)
	stats = runMP(zero, in).Stats
	if stats.Messages != 0 || stats.KnowledgeUnits != 0 {
		t.Errorf("horizon-0 stats = %+v, want zero traffic", stats)
	}
}
