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

func gridInstance() *graph.Labeled {
	return graph.RandomLabels(graph.Grid(6, 6), []graph.Label{"a", "bb", "ccc"}, 9)
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
		return engine.Options{Scheduler: s, Faults: plan, MaxAttempts: 8}
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
	opts := engine.Options{Faults: plan, MaxAttempts: 2}

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
	out := engine.EvalOblivious(flaky, l, engine.Options{MaxAttempts: 3})
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
	out = engine.EvalOblivious(persistent, l, engine.Options{MaxAttempts: 3})
	if out.Accepted {
		t.Fatal("a persistently panicking node must not read as accepted")
	}
	if len(out.Errs) != 1 || out.Errs[0].Node != 7 || out.Errs[0].Attempts != 3 {
		t.Fatalf("errs = %+v, want node 7 after 3 attempts", out.Errs)
	}
}

// The message-fault matrix: drop, duplicate and delay at several rates, at
// horizons 2 and 3, on a cycle and on a 6×6 grid (where interior nodes wait
// on four links). Degradation must never change a verdict — incomplete
// views fall back to extractor evaluation, so the committed verdicts always
// equal the fault-free run — and the fault trace must replay identically
// from the seed. The fallback keeps verdicts right whichever round a copy
// lands in, so the table also pins each model's counters: a delayed copy
// absorbed in the wrong round changes what its receiver forwards, and with
// it KnowledgeUnits.
func TestMessageFaultMatrixNeverWrong(t *testing.T) {
	matrix := []fault.MessageModel{
		{DropRate: 0.1, RetransmitBudget: 1},
		{DropRate: 0.4, RetransmitBudget: 1},
		{DropRate: 0.4, RetransmitBudget: 0},
		{DuplicateRate: 0.3},
		{DelayRate: 0.3, MaxDelay: 2},
		{DropRate: 0.2, DuplicateRate: 0.2, DelayRate: 0.2, RetransmitBudget: 2},
		{}, // an injector that rules every copy on time: a clean run
	}
	// counts are Messages, KnowledgeUnits, Dropped, Duplicated, Delayed,
	// Retransmits and IncompleteViews, one row per matrix model.
	type counts [7]int
	hosts := []struct {
		name    string
		l       *graph.Labeled
		horizon int
		want    []counts
	}{
		{"cycle24", testInstance(24), 2, []counts{
			{96, 192, 0, 0, 0, 7, 0},
			{75, 135, 21, 0, 0, 39, 24},
			{61, 102, 35, 0, 0, 0, 24},
			{134, 266, 0, 38, 0, 0, 0},
			{96, 162, 0, 0, 31, 0, 22},
			{123, 228, 2, 29, 16, 21, 20},
			{96, 192, 0, 0, 0, 0, 0},
		}},
		{"cycle24", testInstance(24), 3, []counts{
			{143, 427, 1, 0, 0, 13, 1},
			{115, 301, 29, 0, 0, 55, 24},
			{88, 203, 56, 0, 0, 0, 24},
			{201, 601, 0, 57, 0, 0, 0},
			{144, 342, 0, 0, 47, 0, 24},
			{186, 496, 2, 44, 24, 40, 24},
			{144, 432, 0, 0, 0, 0, 0},
		}},
		{"grid6x6", gridInstance(), 2, []counts{
			{236, 637, 4, 0, 0, 26, 12},
			{191, 448, 49, 0, 0, 103, 36},
			{143, 291, 97, 0, 0, 0, 36},
			{353, 975, 0, 113, 0, 0, 0},
			{240, 520, 0, 0, 81, 0, 35},
			{302, 716, 3, 65, 46, 50, 34},
			{240, 656, 0, 0, 0, 0, 0},
		}},
		{"grid6x6", gridInstance(), 3, []counts{
			{352, 1801, 8, 0, 0, 42, 24},
			{286, 1260, 74, 0, 0, 154, 36},
			{214, 768, 146, 0, 0, 0, 36},
			{522, 2668, 0, 162, 0, 0, 0},
			{360, 1434, 0, 0, 116, 0, 36},
			{460, 2098, 3, 103, 68, 84, 36},
			{360, 1880, 0, 0, 0, 0, 0},
		}},
	}
	for _, h := range hosts {
		dec := labelSumDecider()
		dec.Horizon = h.horizon
		clean := engine.EvalOblivious(dec, h.l, engine.Options{})
		if clean.Err != nil {
			t.Fatal(clean.Err)
		}
		for i, m := range matrix {
			m := m
			name := fmt.Sprintf("%s t=%d model %d", h.name, h.horizon, i)
			plan := &fault.Plan{Seed: int64(100 + i), Message: &m}
			opts := engine.Options{Scheduler: engine.MessagePassing, Faults: plan}
			out := engine.EvalOblivious(dec, h.l, opts)
			if out.Err != nil {
				t.Fatalf("%s: message faults must degrade, not fail: %v", name, out.Err)
			}
			if !reflect.DeepEqual(out.Verdicts, clean.Verdicts) || out.Accepted != clean.Accepted {
				t.Errorf("%s (%+v): faulty MP verdicts diverged from fault-free", name, m)
			}
			if m.DropRate >= 0.4 && out.Stats.Dropped == 0 {
				t.Errorf("%s: dropRate %.1f recorded no drops", name, m.DropRate)
			}
			if m.DuplicateRate > 0 && out.Stats.Duplicated == 0 {
				t.Errorf("%s: duplicateRate %.1f recorded no duplicates", name, m.DuplicateRate)
			}
			if m.DelayRate > 0 && out.Stats.Delayed == 0 {
				t.Errorf("%s: delayRate %.1f recorded no delays", name, m.DelayRate)
			}
			if out.Stats.Dropped > 0 && out.Stats.IncompleteViews == 0 {
				t.Errorf("%s: lost messages recorded no incomplete views", name)
			}
			s := out.Stats
			got := counts{s.Messages, s.KnowledgeUnits, s.Dropped, s.Duplicated, s.Delayed, s.Retransmits, s.IncompleteViews}
			if got != h.want[i] {
				t.Errorf("%s: counters %v, want %v", name, got, h.want[i])
			}

			// Replay: the identical options replay the identical fault trace.
			again := engine.EvalOblivious(dec, h.l, opts)
			if !reflect.DeepEqual(again.Stats, out.Stats) {
				t.Errorf("%s: same seed, different stats:\n%+v\n%+v", name, again.Stats, out.Stats)
			}
			if !reflect.DeepEqual(again.Verdicts, out.Verdicts) {
				t.Errorf("%s: same seed, different verdicts", name)
			}
		}
	}
}

// On a 600-node cycle the flooding sweeps claim receivers in several
// blocks, so on a pool wider than one worker the fault path's per-receiver
// state (held-back delayed copies, the incomplete flags) is written from
// several workers within one round. Verdicts must equal the fault-free
// run's and the counters stay pinned, as in the matrix above; CI runs this
// under the race detector.
func TestMessageFaultsOnPooledSweeps(t *testing.T) {
	l := testInstance(600)
	dec := labelSumDecider()
	dec.Horizon = 3
	clean := engine.EvalOblivious(dec, l, engine.Options{})
	// counts are Messages, KnowledgeUnits, Dropped, Duplicated, Delayed,
	// Retransmits and IncompleteViews.
	for _, c := range []struct {
		seed  int64
		model fault.MessageModel
		want  [7]int
	}{
		{101, fault.MessageModel{DropRate: 0.4, RetransmitBudget: 1}, [7]int{2997, 7962, 603, 0, 0, 1497, 582}},
		{103, fault.MessageModel{DuplicateRate: 0.3}, [7]int{5165, 15411, 0, 1565, 0, 0, 0}},
		{104, fault.MessageModel{DelayRate: 0.3, MaxDelay: 2}, [7]int{3600, 8698, 0, 0, 1113, 0, 600}},
		{105, fault.MessageModel{DropRate: 0.2, DuplicateRate: 0.2, DelayRate: 0.2, RetransmitBudget: 2}, [7]int{4649, 12039, 36, 1085, 664, 829, 589}},
	} {
		plan := &fault.Plan{Seed: c.seed, Message: &c.model}
		out := engine.EvalOblivious(dec, l, engine.Options{Scheduler: engine.MessagePassing, Faults: plan})
		if out.Err != nil {
			t.Fatalf("%+v: %v", c.model, out.Err)
		}
		if !reflect.DeepEqual(out.Verdicts, clean.Verdicts) || out.Accepted != clean.Accepted {
			t.Errorf("%+v: faulty MP verdicts diverged from fault-free", c.model)
		}
		s := out.Stats
		if got := [7]int{s.Messages, s.KnowledgeUnits, s.Dropped, s.Duplicated, s.Delayed, s.Retransmits, s.IncompleteViews}; got != c.want {
			t.Errorf("%+v: counters %v, want %v", c.model, got, c.want)
		}
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
		Scheduler:   engine.MessagePassing,
		Faults:      plan,
		MaxAttempts: 8,
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
