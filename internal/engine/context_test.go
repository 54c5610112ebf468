package engine

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/testutil"
)

// slowDecider accepts every view after a small sleep — enough work per node
// that a deadline reliably lands mid-evaluation on a large instance.
func slowDecider(perNode time.Duration) Decider {
	return Decider{Name: "slow-accept", Horizon: 1, Decide: func(view *graph.View) Verdict {
		time.Sleep(perNode)
		return Yes
	}}
}

// TestEvalContextPreCanceled: an already-canceled context stops the
// evaluation before (or immediately after) the first node; the outcome
// reports the cancellation instead of fabricating a verdict.
func TestEvalContextPreCanceled(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	l := graph.UniformlyLabeled(graph.Cycle(1000), "u")
	for _, sched := range []Scheduler{Sequential, Sharded, MessagePassing} {
		out := EvalOblivious(slowDecider(0), l, Options{Scheduler: sched, Ctx: ctx})
		if out.Accepted {
			t.Fatalf("%s: canceled evaluation must not accept", sched.Name())
		}
		if !errors.Is(out.Err, context.Canceled) {
			t.Fatalf("%s: Err = %v, want wrapped context.Canceled", sched.Name(), out.Err)
		}
	}
}

// TestEvalDeadlineMidRun: a deadline expiring mid-evaluation stops the
// remaining nodes promptly and surfaces context.DeadlineExceeded, on every
// scheduler, without stranding worker goroutines. The flooding runtime
// would stop between rounds and ShardedMP runs its exchange to the end; at
// horizon 1 the deadline lands in the decide stage, and both skip every
// decide it overtakes.
func TestEvalDeadlineMidRun(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	l := graph.UniformlyLabeled(graph.Cycle(10000), "u")
	for _, sched := range []Scheduler{Sequential, Sharded, MessagePassing, ShardedMP} {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		start := time.Now()
		out := EvalOblivious(slowDecider(100*time.Microsecond), l, Options{Scheduler: sched, Ctx: ctx})
		elapsed := time.Since(start)
		cancel()
		if out.Accepted {
			t.Fatalf("%s: deadline-cut evaluation must not accept", sched.Name())
		}
		if !errors.Is(out.Err, context.DeadlineExceeded) {
			t.Fatalf("%s: Err = %v, want wrapped context.DeadlineExceeded", sched.Name(), out.Err)
		}
		// 10k nodes x 100µs would take ≥1s; the deadline must cut far below.
		if elapsed > 500*time.Millisecond {
			t.Fatalf("%s: evaluation ran %v past a 5ms deadline", sched.Name(), elapsed)
		}
		if out.Stats.Evaluated >= l.N() {
			t.Fatalf("%s: every node evaluated despite the deadline", sched.Name())
		}
	}
}

// TestFloodingDeadlineBetweenRounds: a deadline that lands while the
// flooding protocol runs stops it before the next round, without deciding.
// On the n=10^5 cycle at t=8 the whole protocol sends 2m·t = 1,600,000
// messages and takes far longer than the deadline; the cut run must return
// promptly, having sent fewer.
func TestFloodingDeadlineBetweenRounds(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	const n, horizon = 100_000, 8
	l := graph.UniformlyLabeled(graph.Cycle(n), "u")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	start := time.Now()
	out := EvalOblivious(cheapDecider(horizon), l, Options{Scheduler: MessagePassing, Ctx: ctx})
	elapsed := time.Since(start)
	if out.Accepted {
		t.Fatal("a deadline-cut flooding run must not accept")
	}
	if !errors.Is(out.Err, context.DeadlineExceeded) {
		t.Fatalf("Err = %v, want wrapped context.DeadlineExceeded", out.Err)
	}
	if all := 2 * n * horizon; out.Stats.Messages >= all {
		t.Fatalf("%d messages sent, want fewer than the whole protocol's %d", out.Stats.Messages, all)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("flooding ran %v past a 5ms deadline", elapsed)
	}
	t.Logf("returned after %v, %d rounds, %d messages", elapsed, out.Stats.Rounds, out.Stats.Messages)
}

// TestEvalContextUnsetUnchanged: evaluations without a context behave
// exactly as before — the fast path is a nil check.
func TestEvalContextUnsetUnchanged(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(64), "u")
	out := EvalOblivious(degreeAtMost(2), l, Options{})
	if !out.Accepted || out.Err != nil {
		t.Fatalf("plain evaluation broken: %+v", out)
	}
}

// TestEvalTrialsDeadline: a trial sweep under a deadline returns the
// committed in-order prefix plus an error wrapping the context's — partial
// statistics, honestly flagged — and strands no trial workers. The sweep
// asks for 2^26 trials: its buffers must grow with the trials it ran, not
// with the trials it was asked for.
func TestEvalTrialsDeadline(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	l := graph.UniformlyLabeled(graph.Cycle(32), "u")
	slow := TrialDecider{Name: "slow-coin", Horizon: 1,
		DecideRand: func(view *graph.View, rng *rand.Rand) Verdict {
			time.Sleep(200 * time.Microsecond)
			return Yes
		}}
	const trials = 1 << 26
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	stats, err := EvalTrials(slow, l, TrialOptions{Trials: trials, Seed: 1, Workers: 4, Ctx: ctx})
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
	}
	if stats.Trials >= trials {
		t.Fatal("sweep ran every trial despite the deadline")
	}
	// 2^26 trials x 32 nodes x 200µs is years; the deadline must cut fast.
	if elapsed > 2*time.Second {
		t.Fatalf("sweep ran %v past a 10ms deadline", elapsed)
	}
	// Buffers sized from the requested count would take 2^26 x 2 bytes.
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 16<<20 {
		t.Fatalf("a sweep cut after %d trials allocated %d bytes", stats.Trials, grew)
	}
	// The committed prefix remains worker-count-invariant data: every
	// committed trial accepted (the decider always says Yes).
	if stats.Accepted != stats.Trials {
		t.Fatalf("committed prefix inconsistent: %d accepted of %d", stats.Accepted, stats.Trials)
	}
}
