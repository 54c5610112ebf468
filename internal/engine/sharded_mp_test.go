// Integration tests of the sharded message-passing runtime against the real
// internal/fault injector (an external test package: fault imports engine,
// so these tests cannot live in package engine).
package engine_test

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
)

// shardedHosts is the host battery for the sharded fault-parity property:
// thin boundaries (path, cycle), fat boundaries (random), and a grid.
func shardedHosts(seed int64) []*graph.Labeled {
	n := 8 + int((seed%19+19)%19)
	labels := []graph.Label{"a", "b", "c"}
	return []*graph.Labeled{
		graph.RandomLabels(graph.Cycle(3+n), labels, seed),
		graph.RandomLabels(graph.Random(n, 0.25, seed+1), labels, seed+2),
		graph.RandomLabels(graph.Grid(3, 2+n/3), labels, seed+3),
	}
}

func shardedDecider() engine.Decider {
	return engine.Decider{Name: "obl-viewhash", Horizon: 2,
		Decide: func(view *graph.View) engine.Verdict {
			sum := 0
			for _, b := range []byte(view.ObliviousCode()) {
				sum += int(b)
			}
			return engine.Verdict(sum%3 != 0)
		}}
}

// shardedFaultPlans is the ≥2-plan battery the parity pin runs under: a pure
// crash plan, a pure message plan, and a mixed one. Message fates apply per
// shard-pair link in the sharded runtime; crash fates apply per (node,
// attempt) site in both schedulers.
func shardedFaultPlans(seed int64) []*fault.Plan {
	return []*fault.Plan{
		{Seed: seed, Crash: &fault.CrashModel{Rate: 0.3}},
		{Seed: seed + 1, Message: &fault.MessageModel{DropRate: 0.3, DuplicateRate: 0.3, DelayRate: 0.3, RetransmitBudget: 1}},
		{Seed: seed + 2, Crash: &fault.CrashModel{Rate: 0.2}, Message: &fault.MessageModel{DropRate: 0.5}},
	}
}

// TestShardedMPFaultParity pins the degradation ladder: under every fault
// plan, sharded verdicts are bit-identical to the sequential scheduler's for
// every shard count — a lost halo ring degrades rim nodes to exact fallback
// extraction, it never changes a verdict.
func TestShardedMPFaultParity(t *testing.T) {
	dec := shardedDecider()
	property := func(seed int64) bool {
		for _, l := range shardedHosts(seed) {
			for _, plan := range shardedFaultPlans(seed) {
				want := engine.EvalOblivious(dec, l, engine.Options{Faults: plan, Seed: seed})
				for _, p := range []int{1, 2, 4, 8} {
					for _, dedup := range []bool{false, true} {
						opts := engine.Options{Scheduler: engine.ShardedMPWith(p), Faults: plan, Dedup: dedup, Seed: seed}
						got := engine.EvalOblivious(dec, l, opts)
						if got.Accepted != want.Accepted {
							t.Logf("seed=%d p=%d dedup=%v: acceptance %v, sequential %v",
								seed, p, dedup, got.Accepted, want.Accepted)
							return false
						}
						for v := range want.Verdicts {
							if got.Verdicts[v] != want.Verdicts[v] {
								t.Logf("seed=%d p=%d dedup=%v node=%d: verdict %s, sequential %s",
									seed, p, dedup, v, got.Verdicts[v], want.Verdicts[v])
								return false
							}
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestShardedMPStats pins the exchange accounting: a multi-shard run on a
// connected host reports its shard count, imports ghost nodes, counts halo
// bytes per transmitted copy, and breaks both down by round; a single shard
// exchanges nothing.
func TestShardedMPStats(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(64), "u")
	dec := shardedDecider()

	out := engine.EvalOblivious(dec, l, engine.Options{Scheduler: engine.ShardedMPWith(4)})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	s := out.Stats
	if s.Shards != 4 || s.Workers != 4 {
		t.Errorf("Shards=%d Workers=%d, want 4/4", s.Shards, s.Workers)
	}
	if s.GhostNodes == 0 || s.HaloBytes == 0 || s.Messages == 0 {
		t.Errorf("no exchange recorded: %+v", s)
	}
	if len(s.RoundHaloBytes) != dec.Horizon || len(s.RoundGhostNodes) != dec.Horizon {
		t.Fatalf("per-round breakdowns have lengths %d/%d, want %d",
			len(s.RoundHaloBytes), len(s.RoundGhostNodes), dec.Horizon)
	}
	sumB, sumG := 0, 0
	for r := range s.RoundHaloBytes {
		sumB += s.RoundHaloBytes[r]
		sumG += s.RoundGhostNodes[r]
	}
	if sumB != s.HaloBytes {
		t.Errorf("round halo bytes sum to %d, total %d", sumB, s.HaloBytes)
	}
	if sumG != s.GhostNodes {
		t.Errorf("round ghost nodes sum to %d, total %d", sumG, s.GhostNodes)
	}
	// On a cycle each shard has 2 boundary edges per side; every round's ring
	// is nonempty for horizon 2.
	for r := range s.RoundGhostNodes {
		if s.RoundGhostNodes[r] == 0 {
			t.Errorf("round %d imported no ghosts on a cycle", r)
		}
	}

	solo := engine.EvalOblivious(dec, l, engine.Options{Scheduler: engine.ShardedMPWith(1)})
	if solo.Stats.GhostNodes != 0 || solo.Stats.HaloBytes != 0 || solo.Stats.Messages != 0 {
		t.Errorf("single shard exchanged data: %+v", solo.Stats)
	}
	if solo.Stats.Shards != 1 {
		t.Errorf("Shards=%d, want 1", solo.Stats.Shards)
	}
}

// TestShardedMPMessageFaultTally checks the deterministic fault counters
// surface on the sharded path, that heavy drop degrades (IncompleteViews)
// without changing verdicts, and that degraded nodes still count as decider
// invocations.
func TestShardedMPMessageFaultTally(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(48), "u")
	dec := shardedDecider()
	plan := &fault.Plan{Seed: 9, Message: &fault.MessageModel{DropRate: 0.9}}
	want := engine.EvalOblivious(dec, l, engine.Options{Seed: 9})
	got := engine.EvalOblivious(dec, l, engine.Options{Scheduler: engine.ShardedMPWith(4), Faults: plan, Seed: 9})
	if got.Err != nil {
		t.Fatal(got.Err)
	}
	if got.Stats.Dropped == 0 {
		t.Error("0.9 drop rate dropped no rings")
	}
	if got.Stats.IncompleteViews == 0 {
		t.Error("dropped rings degraded no rim nodes")
	}
	// Dedup is off, so every node is one decider invocation — the degraded
	// rim nodes decided through the full-host fallback included.
	if got.Stats.Evaluated != got.Stats.Nodes {
		t.Errorf("Evaluated=%d, want Nodes=%d (IncompleteViews=%d)",
			got.Stats.Evaluated, got.Stats.Nodes, got.Stats.IncompleteViews)
	}
	for v := range want.Verdicts {
		if got.Verdicts[v] != want.Verdicts[v] {
			t.Fatalf("node %d: verdict %s under faults, %s lossless", v, got.Verdicts[v], want.Verdicts[v])
		}
	}
}

// TestRecoverySweepShardedParity runs the E16 self-stabilization sweep
// through the sharded runtime: episode aggregates must match the default
// scheduler's exactly (heal times derive from seed streams, and sharded
// verdicts are parity-pinned).
func TestRecoverySweepShardedParity(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(32), "ok")
	dec := engine.Decider{Name: "all-ok", Horizon: 1, Decide: func(view *graph.View) engine.Verdict {
		for _, lab := range view.Labels {
			if lab != "ok" {
				return engine.No
			}
		}
		return engine.Yes
	}}
	opts := engine.TrialOptions{Trials: 10, Seed: 7, Workers: 1}
	base, err := fault.RecoverySweep(l, fault.SelfStabConfig{Model: fault.Flip, Rate: 0.2, Decider: dec}, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := fault.RecoverySweep(l, fault.SelfStabConfig{
		Model: fault.Flip, Rate: 0.2, Decider: dec,
		Options: engine.Options{Scheduler: engine.ShardedMPWith(4)},
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sharded.Episodes != base.Episodes ||
		sharded.ExposedRounds != base.ExposedRounds ||
		sharded.ExposedEpisodes != base.ExposedEpisodes ||
		sharded.MeanRecoveryRounds != base.MeanRecoveryRounds ||
		sharded.Trials.Accepted != base.Trials.Accepted {
		t.Fatalf("sharded E16 sweep diverged:\nbase:    %+v\nsharded: %+v", base, sharded)
	}
}

// TestShardedMPOriginalMapping pins View.Original across the sub-host
// runtimes: both the flooding protocol and the sharded runtime extract views
// from renumbered local graphs, and must rebind Original to host addresses
// before the decider sees it (a regression test for the rewrite that moved
// assembly onto shared extractors).
func TestShardedMPOriginalMapping(t *testing.T) {
	g := graph.Grid(3, 5)
	labels := make([]graph.Label, g.N())
	for v := range labels {
		labels[v] = graph.Label(fmt.Sprintf("n%d", v))
	}
	l := graph.NewLabeled(g, labels)
	var mu sync.Mutex
	var bad []string
	dec := engine.Decider{Name: "probe-original", Horizon: 2,
		Decide: func(view *graph.View) engine.Verdict {
			host := view.Original[view.Root]
			if host < 0 || host >= len(labels) || view.Labels[view.Root] != labels[host] {
				mu.Lock()
				bad = append(bad, fmt.Sprintf("root labelled %q claims host %d (%q)",
					view.Labels[view.Root], host, labels[host]))
				mu.Unlock()
			}
			return engine.Yes
		}}
	for _, sched := range []engine.Scheduler{engine.MessagePassing, engine.ShardedMPWith(4)} {
		bad = bad[:0]
		out := engine.EvalOblivious(dec, l, engine.Options{Scheduler: sched})
		if out.Err != nil {
			t.Fatalf("%s: %v", sched.Name(), out.Err)
		}
		if len(bad) > 0 {
			t.Errorf("%s: Original misbound: %s (and %d more)", sched.Name(), bad[0], len(bad)-1)
		}
	}
}
