package engine

import (
	"errors"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

func degreeAtMost(k int) Decider {
	return Decider{
		Name:    "deg<=k",
		Horizon: 1,
		Decide: func(view *graph.View) Verdict {
			return Verdict(view.G.Degree(view.Root) <= k)
		},
	}
}

// An instance with no nodes is an explicit error on every scheduler: the
// seed-era vacuous accept made "we decided nothing" indistinguishable from
// "every node said yes".
func TestEmptyGraphIsAnError(t *testing.T) {
	l := graph.UniformlyLabeled(graph.New(0), "")
	for _, sched := range []Scheduler{Sequential, Sharded, MessagePassing} {
		out := EvalOblivious(degreeAtMost(0), l, Options{Scheduler: sched})
		if out.Accepted {
			t.Errorf("%s: empty graph must not read as accepted", sched.Name())
		}
		if !errors.Is(out.Err, ErrEmptyInstance) {
			t.Errorf("%s: Err = %v, want ErrEmptyInstance", sched.Name(), out.Err)
		}
	}
}

func TestDedupOnCycle(t *testing.T) {
	// Every node of a uniformly labelled cycle has the same radius-2 view:
	// one decide call, n-1 cache hits.
	l := graph.UniformlyLabeled(graph.Cycle(200), "c")
	var calls atomic.Int64
	dec := Decider{Name: "count", Horizon: 2, Decide: func(view *graph.View) Verdict {
		calls.Add(1)
		return Yes
	}}
	out := EvalOblivious(dec, l, Options{Dedup: true})
	if !out.Accepted {
		t.Fatal("uniform cycle should accept")
	}
	if calls.Load() != 1 {
		t.Errorf("decider called %d times, want 1 (dedup)", calls.Load())
	}
	if out.Stats.DedupHits != 199 || out.Stats.DistinctViews != 1 {
		t.Errorf("stats = %+v, want 199 hits over 1 distinct view", out.Stats)
	}
}

// The radius-1 views of a sparse random host are stars with a few extra
// edges, and a view's leaves of one label are mostly twins. Twin pruning
// codes each view in microseconds, so a cold dedup sweep of a two-letter
// G(500, 4/499) takes milliseconds; without it one such sweep ran for
// minutes, all in canonical codes. Its verdicts must match a cache-free
// sweep. The sweeps run on their own goroutine so that a regression fails
// after the deadline instead of hanging the package.
func TestDedupSparseRandomHost(t *testing.T) {
	type result struct {
		seed    int64
		elapsed time.Duration
		out     Outcome
	}
	results := make(chan result, 5)
	go func() {
		for seed := int64(1); seed <= 5; seed++ {
			l := graph.RandomLabels(graph.Random(500, 4.0/499, seed), []graph.Label{"a", "b"}, seed)
			start := time.Now()
			out := EvalOblivious(degreeAtMost(4), l, Options{Dedup: true})
			results <- result{seed, time.Since(start), out}
		}
	}()
	for seed := int64(1); seed <= 5; seed++ {
		var r result
		select {
		case r = <-results:
		case <-time.After(10 * time.Second):
			t.Fatalf("seed %d: cold dedup sweep not done within 10s", seed)
		}
		if r.elapsed > time.Second {
			t.Fatalf("seed %d: cold dedup sweep took %v, want under 1s", seed, r.elapsed)
		}
		l := graph.RandomLabels(graph.Random(500, 4.0/499, seed), []graph.Label{"a", "b"}, seed)
		ref := EvalOblivious(degreeAtMost(4), l, Options{})
		if r.out.Err != nil || ref.Err != nil || !slices.Equal(r.out.Verdicts, ref.Verdicts) {
			t.Fatalf("seed %d: dedup verdicts differ from the cache-free sweep (errors %v, %v)", seed, r.out.Err, ref.Err)
		}
		if r.out.Stats.DistinctViews == 0 {
			t.Fatalf("seed %d: the sweep coded no views", seed)
		}
	}
}

func TestDedupSkippedWhenUnsound(t *testing.T) {
	// Identifier-carrying evaluation: dedup must be silently disabled.
	l := graph.UniformlyLabeled(graph.Cycle(8), "c")
	ids := []int{3, 1, 4, 15, 9, 2, 6, 5}
	var calls atomic.Int64
	dec := Decider{Name: "count", Horizon: 1, Decide: func(view *graph.View) Verdict {
		calls.Add(1)
		return Yes
	}}
	out := Eval(dec, graph.NewInstance(l, ids), Options{Dedup: true})
	if calls.Load() != 8 || out.Stats.DedupHits != 0 {
		t.Errorf("calls=%d hits=%d: dedup must not apply to ID-carrying views", calls.Load(), out.Stats.DedupHits)
	}
}

func TestEarlyExitStopsEvaluation(t *testing.T) {
	// A single-reject instance with early exit: sequential evaluation must
	// stop at the rejecting node.
	l := graph.UniformlyLabeled(graph.Path(100), "")
	dec := Decider{Name: "reject-root-5", Horizon: 0, Decide: func(view *graph.View) Verdict {
		return Verdict(view.Original[view.Root] != 5)
	}}
	out := EvalOblivious(dec, l, Options{EarlyExit: true})
	if out.Accepted {
		t.Fatal("instance must be rejected")
	}
	if out.Verdicts != nil {
		t.Error("early-exit outcomes carry no per-node verdicts")
	}
	if !out.Stats.EarlyExit {
		t.Error("stats should record the early exit")
	}
	if out.Stats.Evaluated != 6 {
		t.Errorf("evaluated %d nodes, want 6 (stop at first reject)", out.Stats.Evaluated)
	}
}

func TestShardedWithCapsWorkers(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(500), "c")
	out := EvalOblivious(degreeAtMost(2), l, Options{Scheduler: ShardedWith(3)})
	if !out.Accepted {
		t.Fatal("cycle is 2-regular")
	}
	if out.Stats.Workers != 3 {
		t.Errorf("workers = %d, want 3", out.Stats.Workers)
	}
	// Tiny instance: the pool must collapse to inline evaluation.
	small := graph.UniformlyLabeled(graph.Cycle(5), "c")
	out = EvalOblivious(degreeAtMost(2), small, Options{Scheduler: Sharded})
	if out.Stats.Workers != 1 {
		t.Errorf("workers = %d on n=5, want 1 (no idle goroutines)", out.Stats.Workers)
	}
}

func TestRandomizedSeedDeterminism(t *testing.T) {
	// Coin streams are a function of (seed, node) only, so repeated runs and
	// different schedulers agree verdict for verdict.
	l := graph.RandomLabels(graph.Random(80, 0.1, 1), []graph.Label{"a", "b"}, 2)
	dec := Decider{Name: "coin", Horizon: 1, DecideRand: func(view *graph.View, rng *rand.Rand) Verdict {
		return Verdict(rng.Intn(4) != 0)
	}}
	a := EvalOblivious(dec, l, Options{Seed: 7})
	b := EvalOblivious(dec, l, Options{Seed: 7, Scheduler: ShardedWith(4)})
	c := EvalOblivious(dec, l, Options{Seed: 8})
	for v := range a.Verdicts {
		if a.Verdicts[v] != b.Verdicts[v] {
			t.Fatalf("node %d: scheduler changed a coin verdict", v)
		}
	}
	diff := false
	for v := range a.Verdicts {
		if a.Verdicts[v] != c.Verdicts[v] {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds should (overwhelmingly) change some verdict")
	}
}

// Malformed deciders come back as Outcome.Err, not a panic.
func TestDeciderValidation(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Path(3), "")
	for _, dec := range []Decider{
		{Name: "neither", Horizon: 1},
		{Name: "both", Horizon: 1,
			Decide:     func(view *graph.View) Verdict { return Yes },
			DecideRand: func(view *graph.View, rng *rand.Rand) Verdict { return Yes }},
	} {
		out := EvalOblivious(dec, l, Options{})
		if out.Err == nil || out.Accepted {
			t.Errorf("%s: Outcome = %+v, want validation error", dec.Name, out)
		}
	}
}
