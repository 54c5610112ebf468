// Integration tests of the engine's fault-injection hardening against the
// real internal/fault injector (an external test package: fault imports
// engine, so these tests cannot live in package engine).
package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/graph"
)

func degreeDecider() engine.Decider {
	return engine.Decider{
		Name:    "deg<=2",
		Horizon: 1,
		Decide: func(view *graph.View) engine.Verdict {
			return engine.Verdict(view.G.Degree(view.Root) <= 2)
		},
	}
}

// labelSumDecider needs the full radius-2 view, so MP flooding (and its
// faulty degradation paths) does real work.
func labelSumDecider() engine.Decider {
	return engine.Decider{
		Name:    "label-sum",
		Horizon: 2,
		Decide: func(view *graph.View) engine.Verdict {
			sum := 0
			for _, lab := range view.Labels {
				sum += len(lab)
			}
			return engine.Verdict(sum%7 != 3)
		},
	}
}

func testInstance(n int) *graph.Labeled {
	return graph.RandomLabels(graph.Cycle(n), []graph.Label{"a", "bb", "ccc"}, 9)
}

// Worker crashes must never lose or duplicate a node's verdict: whatever the
// driver or worker count, a crashed decide is respawned and the committed
// verdicts match the fault-free run exactly (or surface as VerdictErrors —
// never as silent wrong verdicts). Crash draws are pure in (node, attempt),
// so the whole fault trace, and with it the crash and retry tallies every
// driver merges from its workers, replays identically everywhere. The
// 256-node instance is above the sharded scheduler's inline threshold, so
// the pooled rows really run on a pool there.
func TestCrashRespawnNeverLosesVerdicts(t *testing.T) {
	plan := &fault.Plan{Seed: 21, Crash: &fault.CrashModel{Rate: 0.4}}
	opts := func(s engine.Scheduler) engine.Options {
		return engine.Options{Scheduler: s, Faults: plan, MaxAttempts: 8, RetryBackoff: -1}
	}
	eval := func(s engine.Scheduler) func(*graph.Labeled) engine.Outcome {
		return func(l *graph.Labeled) engine.Outcome { return engine.EvalOblivious(degreeDecider(), l, opts(s)) }
	}
	runs := []struct {
		name string
		run  func(*graph.Labeled) engine.Outcome
	}{
		{"sequential", eval(engine.Sequential)},
		{"sharded-2", eval(engine.ShardedWith(2))},
		{"sharded-8", eval(engine.ShardedWith(8))},
		{"mp", eval(engine.MessagePassing)},
		{"sharded-mp-2", eval(engine.ShardedMPWith(2))},
		{"batch-sharded-2", func(l *graph.Labeled) engine.Outcome {
			outs := engine.EvalBatchOblivious(degreeDecider(), []*graph.Labeled{l, l}, opts(engine.ShardedWith(2)))
			if !reflect.DeepEqual(outs[0], outs[1]) {
				t.Errorf("batch: one instance twice gave two outcomes")
			}
			return outs[0]
		}},
		{"incremental-sharded-2", func(l *graph.Labeled) engine.Outcome {
			// The session takes ownership of its host.
			inc, err := engine.NewIncremental(degreeDecider(), l.Clone(), opts(engine.ShardedWith(2)))
			if err != nil {
				t.Fatal(err)
			}
			return inc.Outcome()
		}},
	}
	for _, n := range []int{60, 256} {
		l := testInstance(n)
		clean := engine.EvalOblivious(degreeDecider(), l, engine.Options{})
		if clean.Err != nil {
			t.Fatal(clean.Err)
		}
		var base engine.Outcome
		for i, rk := range runs {
			name := fmt.Sprintf("n=%d/%s", n, rk.name)
			out := rk.run(l)
			if len(out.Errs) != 0 {
				// Rate 0.4 with 8 attempts: per-node failure odds 0.4^8. The
				// trace is deterministic, so this is a fixed property of seed 21.
				t.Fatalf("%s: unexpected exhausted nodes %v", name, out.Errs)
			}
			if out.Err != nil {
				t.Fatalf("%s: %v", name, out.Err)
			}
			if !reflect.DeepEqual(out.Verdicts, clean.Verdicts) || out.Accepted != clean.Accepted {
				t.Errorf("%s: crash respawn changed verdicts", name)
			}
			if out.Stats.Crashes == 0 {
				t.Errorf("%s: rate 0.4 injected no crashes", name)
			}
			if out.Stats.Retries != out.Stats.Crashes {
				t.Errorf("%s: crashes=%d retries=%d, want equal when no node exhausts",
					name, out.Stats.Crashes, out.Stats.Retries)
			}
			if i == 0 {
				base = out
				continue
			}
			// The fault trace is driver- and worker-count-invariant.
			if out.Stats.Crashes != base.Stats.Crashes || out.Stats.Retries != base.Stats.Retries {
				t.Errorf("%s: fault tally (crashes=%d retries=%d) diverged from sequential (%d, %d)",
					name, out.Stats.Crashes, out.Stats.Retries, base.Stats.Crashes, base.Stats.Retries)
			}
		}
	}
}

// Exhausted retries surface as per-node VerdictErrors and an unreliable
// outcome — never as an accept, on the early-exit path included.
func TestCrashExhaustionIsErrorNotAccept(t *testing.T) {
	l := testInstance(12)
	dec := degreeDecider()
	plan := &fault.Plan{Seed: 1, Crash: &fault.CrashModel{Rate: 1}}
	opts := engine.Options{Faults: plan, MaxAttempts: 2, RetryBackoff: -1}

	out := engine.EvalOblivious(dec, l, opts)
	if out.Accepted {
		t.Fatal("an all-crash run must not read as accepted")
	}
	if out.Err == nil {
		t.Fatal("an all-crash run must carry an error")
	}
	var ve engine.VerdictError
	if !errors.As(out.Err, &ve) {
		t.Fatalf("Err = %v, want a VerdictError", out.Err)
	}
	if len(out.Errs) != l.N() {
		t.Fatalf("errs = %d, want one per node", len(out.Errs))
	}
	for i, e := range out.Errs {
		if e.Node != i || e.Attempts != 2 {
			t.Errorf("errs[%d] = %+v, want node %d after 2 attempts", i, e, i)
		}
	}

	opts.EarlyExit = true
	out = engine.EvalOblivious(dec, l, opts)
	if out.Accepted || out.Err == nil {
		t.Error("early exit must not turn exhausted nodes into an accept")
	}
}

// A genuine decider panic (not injected) takes the same respawn path: flaky
// panics are retried away, persistent ones become VerdictErrors.
func TestGenuinePanicRespawn(t *testing.T) {
	l := testInstance(10)
	var calls [10]atomic.Int32
	flaky := engine.Decider{
		Name:    "flaky",
		Horizon: 1,
		Decide: func(view *graph.View) engine.Verdict {
			if calls[view.Original[view.Root]].Add(1) == 1 {
				panic("first attempt always dies")
			}
			return engine.Yes
		},
	}
	out := engine.EvalOblivious(flaky, l, engine.Options{MaxAttempts: 3, RetryBackoff: -1})
	if !out.Accepted || out.Err != nil {
		t.Fatalf("flaky decider must recover on retry: accepted=%v err=%v", out.Accepted, out.Err)
	}
	if out.Stats.Crashes != 10 || out.Stats.Retries != 10 {
		t.Errorf("crashes=%d retries=%d, want 10 each (one panic per node)",
			out.Stats.Crashes, out.Stats.Retries)
	}

	persistent := engine.Decider{
		Name:    "dies-at-7",
		Horizon: 1,
		Decide: func(view *graph.View) engine.Verdict {
			if view.Original[view.Root] == 7 {
				panic("node 7 always dies")
			}
			return engine.Yes
		},
	}
	out = engine.EvalOblivious(persistent, l, engine.Options{MaxAttempts: 3, RetryBackoff: -1})
	if out.Accepted {
		t.Fatal("a persistently panicking node must not read as accepted")
	}
	if len(out.Errs) != 1 || out.Errs[0].Node != 7 || out.Errs[0].Attempts != 3 {
		t.Fatalf("errs = %+v, want node 7 after 3 attempts", out.Errs)
	}
}

// The message-fault matrix: drop, duplicate and delay at several rates, with
// and without a round timeout. Degradation must never change a verdict —
// incomplete views fall back to extractor evaluation, so the committed
// verdicts always equal the fault-free run — and the fault trace must replay
// identically from the seed.
func TestMessageFaultMatrixNeverWrong(t *testing.T) {
	l := testInstance(24)
	dec := labelSumDecider()
	clean := engine.EvalOblivious(dec, l, engine.Options{})
	if clean.Err != nil {
		t.Fatal(clean.Err)
	}

	matrix := []fault.MessageModel{
		{DropRate: 0.1, RetransmitBudget: 1},
		{DropRate: 0.4, RetransmitBudget: 1},
		{DropRate: 0.4, RetransmitBudget: 0},
		{DuplicateRate: 0.3},
		{DelayRate: 0.3, MaxDelay: 2},
		{DropRate: 0.2, DuplicateRate: 0.2, DelayRate: 0.2, RetransmitBudget: 2},
	}
	for i, m := range matrix {
		m := m
		plan := &fault.Plan{Seed: int64(100 + i), Message: &m}
		opts := engine.Options{Scheduler: engine.MessagePassing, Faults: plan}
		out := engine.EvalOblivious(dec, l, opts)
		if out.Err != nil {
			t.Fatalf("model %d: message faults must degrade, not fail: %v", i, out.Err)
		}
		if !reflect.DeepEqual(out.Verdicts, clean.Verdicts) || out.Accepted != clean.Accepted {
			t.Errorf("model %d (%+v): faulty MP verdicts diverged from fault-free", i, m)
		}
		if m.DropRate >= 0.4 && out.Stats.Dropped == 0 {
			t.Errorf("model %d: dropRate %.1f recorded no drops", i, m.DropRate)
		}
		if m.DuplicateRate > 0 && out.Stats.Duplicated == 0 {
			t.Errorf("model %d: duplicateRate %.1f recorded no duplicates", i, m.DuplicateRate)
		}
		if m.DelayRate > 0 && out.Stats.Delayed == 0 {
			t.Errorf("model %d: delayRate %.1f recorded no delays", i, m.DelayRate)
		}
		if out.Stats.Dropped > 0 && out.Stats.IncompleteViews == 0 {
			t.Errorf("model %d: lost messages recorded no incomplete views", i)
		}

		// Replay: the identical options replay the identical fault trace.
		again := engine.EvalOblivious(dec, l, opts)
		if !reflect.DeepEqual(again.Stats, out.Stats) {
			t.Errorf("model %d: same seed, different stats:\n%+v\n%+v", i, again.Stats, out.Stats)
		}
		if !reflect.DeepEqual(again.Verdicts, out.Verdicts) {
			t.Errorf("model %d: same seed, different verdicts", i)
		}
	}
}

// A round timeout with no faults takes the hardened MP path but must behave
// exactly like the lossless protocol: nothing times out, nothing degrades.
func TestRoundTimeoutCleanPath(t *testing.T) {
	l := testInstance(20)
	dec := labelSumDecider()
	clean := engine.EvalOblivious(dec, l, engine.Options{Scheduler: engine.MessagePassing})
	out := engine.EvalOblivious(dec, l, engine.Options{
		Scheduler:    engine.MessagePassing,
		RoundTimeout: 5 * time.Second,
	})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !reflect.DeepEqual(out.Verdicts, clean.Verdicts) {
		t.Error("timeout-armed clean run diverged from lossless MP")
	}
	if out.Stats.IncompleteViews != 0 || out.Stats.TimedOutRounds != 0 ||
		out.Stats.Dropped != 0 || out.Stats.Duplicated != 0 || out.Stats.Delayed != 0 {
		t.Errorf("clean run recorded fault activity: %+v", out.Stats)
	}
}

// Crash injection and message faults compose on the MP backend.
func TestMessageAndCrashFaultsCompose(t *testing.T) {
	l := testInstance(16)
	dec := labelSumDecider()
	clean := engine.EvalOblivious(dec, l, engine.Options{})
	plan := &fault.Plan{
		Seed:    5,
		Crash:   &fault.CrashModel{Rate: 0.3},
		Message: &fault.MessageModel{DropRate: 0.3, RetransmitBudget: 1},
	}
	out := engine.EvalOblivious(dec, l, engine.Options{
		Scheduler:    engine.MessagePassing,
		Faults:       plan,
		MaxAttempts:  8,
		RetryBackoff: -1,
	})
	if out.Err != nil {
		t.Fatalf("composed faults: %v", out.Err)
	}
	if !reflect.DeepEqual(out.Verdicts, clean.Verdicts) {
		t.Error("composed faults changed verdicts")
	}
	if out.Stats.Crashes == 0 || out.Stats.Dropped == 0 {
		t.Errorf("stats = %+v, want both crash and drop activity", out.Stats)
	}
}
