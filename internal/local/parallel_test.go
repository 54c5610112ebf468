package local

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/ids"
)

// The engine's sharded worker pool evaluates an adapted ID-using algorithm
// exactly as Run does.
func TestRunParallelMatchesSequential(t *testing.T) {
	alg := viewCodeAlgorithm(2)
	for _, n := range []int{1, 7, 40} {
		g := graph.Random(n, 0.2, int64(n))
		l := graph.RandomLabels(g, []graph.Label{"a", "b"}, int64(n)+1)
		in := graph.NewInstance(l, ids.Sequential(n))
		seq := Run(alg, in)
		par := engine.Eval(EngineDecider(alg), in, engine.Options{Scheduler: engine.Sharded})
		for v := range seq.Verdicts {
			if seq.Verdicts[v] != par.Verdicts[v] {
				t.Fatalf("n=%d node %d: parallel diverges", n, v)
			}
		}
		if seq.Accepted != par.Accepted {
			t.Fatalf("n=%d: acceptance diverges", n)
		}
	}
}

// The same for an adapted Id-oblivious algorithm against RunOblivious.
func TestRunObliviousParallelMatchesSequential(t *testing.T) {
	alg := ObliviousFunc("deg<=3", 1, func(view *graph.View) Verdict {
		return Verdict(view.G.Degree(view.Root) <= 3)
	})
	property := func(seed int64) bool {
		n := 2 + int(abs(seed)%30)
		l := graph.RandomLabels(graph.Random(n, 0.25, seed), []graph.Label{"x", "y"}, seed)
		a := RunOblivious(alg, l)
		b := engine.EvalOblivious(EngineObliviousDecider(alg), l, engine.Options{Scheduler: engine.Sharded})
		for v := range a.Verdicts {
			if a.Verdicts[v] != b.Verdicts[v] {
				return false
			}
		}
		return a.Accepted == b.Accepted
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestRunParallelEmpty(t *testing.T) {
	l := graph.UniformlyLabeled(graph.New(0), "")
	alg := ObliviousFunc("x", 0, func(view *graph.View) Verdict { return Yes })
	out := engine.EvalOblivious(EngineObliviousDecider(alg), l, engine.Options{Scheduler: engine.Sharded})
	if out.Accepted || !errors.Is(out.Err, engine.ErrEmptyInstance) {
		t.Errorf("empty graph: %+v, want ErrEmptyInstance", out)
	}
}
