package engine

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// The batch parity suite: EvalBatchOblivious must produce, per instance,
// exactly the Verdicts and Accepted of the per-instance EvalOblivious call
// with the same options — on every scheduler, identifier-free decider
// (deterministic and randomized), and option combination. Batching may only
// change the cost accounting, never a verdict.

func TestEvalBatchParity(t *testing.T) {
	schedulers := []Scheduler{Sequential, Sharded, ShardedWith(3), MessagePassing, ShardedMPWith(3)}
	property := func(seed int64) bool {
		base := parityInstances(seed)
		for name, dec := range parityDeciders() {
			if idDeciders[name] {
				continue // batches are identifier-free
			}
			hosts := base
			if name == "nld-cert" {
				hosts = make([]*graph.Labeled, len(base))
				for i, l := range base {
					hosts[i] = withCerts(l)
				}
			}
			for _, sched := range schedulers {
				for _, dedup := range []bool{false, true} {
					for _, earlyExit := range []bool{false, true} {
						opts := Options{Scheduler: sched, Dedup: dedup, EarlyExit: earlyExit, Seed: seed}
						got := EvalBatchOblivious(dec, hosts, opts)
						for i := range hosts {
							want := EvalOblivious(dec, hosts[i], opts)
							if got[i].Accepted != want.Accepted {
								t.Logf("seed=%d decider=%s sched=%s dedup=%v early=%v instance=%d: batch accepted %v, eval %v",
									seed, name, sched.Name(), dedup, earlyExit, i, got[i].Accepted, want.Accepted)
								return false
							}
							if earlyExit {
								if got[i].Verdicts != nil {
									t.Logf("batch early-exit outcome must carry no verdicts")
									return false
								}
								continue
							}
							for v := range want.Verdicts {
								if got[i].Verdicts[v] != want.Verdicts[v] {
									t.Logf("seed=%d decider=%s sched=%s dedup=%v instance=%d node=%d: batch %s, eval %s",
										seed, name, sched.Name(), dedup, i, v, got[i].Verdicts[v], want.Verdicts[v])
									return false
								}
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 4}); err != nil {
		t.Error(err)
	}
}

// TestEvalBatchSharesCache pins the batch's headline amortisation: with
// Dedup set and no explicit cache, one private cache serves the whole slice,
// so a view shape repeating across instances is decided exactly once.
func TestEvalBatchSharesCache(t *testing.T) {
	dec := Decider{Name: "deg2", Horizon: 2,
		Decide: func(view *graph.View) Verdict { return Verdict(view.G.Degree(view.Root) == 2) }}
	batch := make([]*graph.Labeled, 6)
	for i := range batch {
		batch[i] = graph.UniformlyLabeled(graph.Cycle(30), "c")
	}
	for _, sched := range []Scheduler{Sequential, Sharded} {
		outs := EvalBatchOblivious(dec, batch, Options{Scheduler: sched, Dedup: true})
		evaluated, inserted := 0, 0
		for i, out := range outs {
			if !out.Accepted {
				t.Fatalf("%s: instance %d rejected", sched.Name(), i)
			}
			evaluated += out.Stats.Evaluated
			inserted += out.Stats.DistinctViews
		}
		// Every node of every uniform cycle has the same radius-2 view: one
		// decide for the whole batch.
		if evaluated != 1 || inserted != 1 {
			t.Errorf("%s: want 1 evaluation / 1 insert across the batch, got %d / %d",
				sched.Name(), evaluated, inserted)
		}
	}
}

// TestEvalBatchCrossRunCache pins that an explicit Options.Cache behaves
// exactly as in Eval: the batch marks outcomes cache-shared and a second
// batch is served entirely from the first one's verdicts.
func TestEvalBatchCrossRunCache(t *testing.T) {
	dec := Decider{Name: "deg2", Horizon: 1,
		Decide: func(view *graph.View) Verdict { return Verdict(view.G.Degree(view.Root) == 2) }}
	batch := []*graph.Labeled{
		graph.UniformlyLabeled(graph.Cycle(12), "c"),
		graph.UniformlyLabeled(graph.Cycle(17), "c"),
	}
	cache := NewViewCache()
	first := EvalBatchOblivious(dec, batch, Options{Dedup: true, Cache: cache})
	if !first[0].Stats.CacheShared {
		t.Fatalf("explicit cache must mark outcomes shared")
	}
	second := EvalBatchOblivious(dec, batch, Options{Dedup: true, Cache: cache})
	for i, out := range second {
		if out.Stats.Evaluated != 0 {
			t.Errorf("instance %d: second batch re-decided %d views", i, out.Stats.Evaluated)
		}
	}
}

// TestEvalBatchDegenerate covers the edges: the empty batch, a batch
// containing an empty graph, and a batch of one (which delegates to the
// scheduler's per-instance run).
func TestEvalBatchDegenerate(t *testing.T) {
	dec := Decider{Name: "yes", Horizon: 1,
		Decide: func(*graph.View) Verdict { return Yes }}
	if outs := EvalBatchOblivious(dec, nil, Options{}); len(outs) != 0 {
		t.Fatalf("empty batch must return no outcomes")
	}
	batch := []*graph.Labeled{
		graph.UniformlyLabeled(graph.New(0), ""),
		graph.UniformlyLabeled(graph.Path(5), "p"),
	}
	for _, sched := range []Scheduler{Sequential, Sharded} {
		outs := EvalBatchOblivious(dec, batch, Options{Scheduler: sched})
		if outs[0].Accepted || !errors.Is(outs[0].Err, ErrEmptyInstance) || outs[0].Stats.Workers != 0 {
			t.Errorf("%s: empty graph must surface ErrEmptyInstance with 0 workers, got %+v", sched.Name(), outs[0])
		}
		if !outs[1].Accepted || len(outs[1].Verdicts) != 5 {
			t.Errorf("%s: 5-node path outcome malformed", sched.Name())
		}
	}
	single := EvalBatchOblivious(dec, batch[1:], Options{Scheduler: Sharded})
	if !single[0].Accepted || len(single[0].Verdicts) != 5 {
		t.Errorf("batch of one must match per-instance run")
	}
}
