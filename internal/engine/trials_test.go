package engine

import (
	"errors"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
)

// trialCoin is the battery's randomized stage: accept unless the node's
// first draw in `sides` comes up zero, plus a structural condition so the
// verdict also depends on the view.
func trialCoin(sides int) func(view *graph.View, rng *rand.Rand) Verdict {
	return func(view *graph.View, rng *rand.Rand) Verdict {
		if view != nil && view.G.Degree(view.Root) > 4 {
			return No
		}
		return Verdict(rng.Intn(sides) != 0)
	}
}

func TestWilsonInterval(t *testing.T) {
	iv := WilsonInterval(0, 200, 0.95)
	if iv.Low != 0 || iv.High < 0.015 || iv.High > 0.03 {
		t.Errorf("Wilson(0/200) = %+v, want [0, ~0.019]", iv)
	}
	iv = WilsonInterval(200, 200, 0.95)
	if iv.High != 1 || iv.Low < 0.97 || iv.Low > 0.99 {
		t.Errorf("Wilson(200/200) = %+v, want [~0.981, 1]", iv)
	}
	mid := WilsonInterval(100, 200, 0.95)
	if mid.Low >= 0.5 || mid.High <= 0.5 {
		t.Errorf("Wilson(100/200) = %+v must contain 0.5", mid)
	}
	wider := WilsonInterval(100, 200, 0.99)
	if wider.High-wider.Low <= mid.High-mid.Low {
		t.Error("99% interval must be wider than 95%")
	}
	if !mid.Separates(0.8) || mid.Separates(0.5) {
		t.Errorf("Separates wrong on %+v", mid)
	}
}

// The committed statistics must be a pure function of (decider, instance,
// options minus Workers): every worker count yields the identical verdict
// sequence, estimate, interval, and stopping point.
func TestEvalTrialsWorkerInvariance(t *testing.T) {
	l := graph.RandomLabels(graph.Cycle(40), []graph.Label{"a", "b"}, 3)
	for _, opts := range []TrialOptions{
		{Trials: 60, Seed: 7},
		{Trials: 400, Seed: 11, AdaptiveStop: true, Threshold: 0.9, Confidence: 0.99},
		{Trials: 400, Seed: 13, AdaptiveStop: true, Threshold: 0.2, MinTrials: 32},
	} {
		dec := TrialDecider{Name: "coin16", Horizon: 1, DecideRand: trialCoin(16)}
		base := opts
		base.Workers = 1
		want, err := EvalTrials(dec, l, base)
		if err != nil {
			t.Fatalf("sequential sweep: %v", err)
		}
		for _, workers := range []int{2, 3, 8} {
			o := opts
			o.Workers = workers
			got, err := EvalTrials(dec, l, o)
			if err != nil {
				t.Fatalf("workers=%d: %v", workers, err)
			}
			if got.Trials != want.Trials || got.Accepted != want.Accepted ||
				got.Estimate != want.Estimate || got.CI != want.CI || got.Stopped != want.Stopped {
				t.Fatalf("workers=%d: stats %+v diverge from sequential %+v", workers, got, want)
			}
			for i := range want.Verdicts {
				if got.Verdicts[i] != want.Verdicts[i] {
					t.Fatalf("workers=%d: trial %d verdict %s, want %s", workers, i, got.Verdicts[i], want.Verdicts[i])
				}
			}
		}
	}
}

// Adaptive stopping must fire when the estimate is far from the threshold,
// respect the MinTrials floor, and never fire when the threshold sits inside
// the interval.
// TestEvalTrialsLeadBoundsDiscardedWork pins the claim window: while the
// sweep's first decide call stalls one worker, the other decides at most
// trialLead×workers trials past the committed prefix, so a stop at the
// 16-trial floor leaves Evaluated within (16 + window)·n on every run.
func TestEvalTrialsLeadBoundsDiscardedWork(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(12), "c")
	const workers = 2
	limit := (defaultMinTrials + trialLead*workers) * l.N()
	for run := 0; run < 5; run++ {
		var calls atomic.Int64
		dec := TrialDecider{Name: "stall", Horizon: 1, RandIgnoresView: true,
			DecideRand: func(*graph.View, *rand.Rand) Verdict {
				if calls.Add(1) == 1 {
					time.Sleep(30 * time.Millisecond)
				}
				return Yes
			}}
		stats, err := EvalTrials(dec, l, TrialOptions{Trials: 500, Seed: 1, Workers: workers, AdaptiveStop: true, Threshold: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		if !stats.Stopped || stats.Trials != defaultMinTrials {
			t.Fatalf("run %d: stopped=%v after %d trials, want a stop at the %d-trial floor", run, stats.Stopped, stats.Trials, defaultMinTrials)
		}
		if stats.Evaluated > limit {
			t.Fatalf("run %d: Evaluated = %d, want at most (%d + %d)·%d = %d", run, stats.Evaluated, defaultMinTrials, trialLead*workers, l.N(), limit)
		}
	}
}

func TestEvalTrialsAdaptiveStop(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(8), "u")
	dec := TrialDecider{Name: "coin2", Horizon: 0, DecideRand: trialCoin(2)}
	// Acceptance ≈ 0.5^8 ≈ 0.004, threshold 0.9: separation is immediate.
	stats, err := EvalTrials(dec, l, TrialOptions{Trials: 10000, Seed: 1, AdaptiveStop: true, Threshold: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Stopped || stats.Trials == 10000 {
		t.Fatalf("sweep did not stop early: %+v", stats)
	}
	if stats.Trials < defaultMinTrials {
		t.Fatalf("stopped after %d trials, below the %d floor", stats.Trials, defaultMinTrials)
	}
	if stats.CI.High >= 0.9 {
		t.Fatalf("stopped without separation: %+v", stats)
	}
	// Threshold placed on the estimate itself: must run to the cap.
	p := math.Pow(0.5, 8)
	stats, err = EvalTrials(dec, l, TrialOptions{Trials: 50, Seed: 1, AdaptiveStop: true, Threshold: p})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Stopped && stats.CI.Low <= p && p <= stats.CI.High {
		t.Fatalf("stopped while the interval straddles the threshold: %+v", stats)
	}
}

// A rejecting deterministic prefix short-circuits the whole sweep.
func TestEvalTrialsPrefixRejects(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Star(5), "u") // centre degree exceeds 2
	dec := TrialDecider{
		Name:    "deg<=2+coin",
		Horizon: 1,
		Prefix: func(view *graph.View) Verdict {
			return Verdict(view.G.Degree(view.Root) <= 2)
		},
		DecideRand: func(view *graph.View, rng *rand.Rand) Verdict {
			t.Error("random stage ran despite prefix rejection")
			return No
		},
	}
	stats, err := EvalTrials(dec, l, TrialOptions{Trials: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.PrefixRejected || stats.Trials != 30 || stats.Accepted != 0 || stats.Estimate != 0 {
		t.Fatalf("prefix rejection stats wrong: %+v", stats)
	}
	if len(stats.Verdicts) != 30 {
		t.Fatalf("verdict sequence has %d entries, want 30", len(stats.Verdicts))
	}
	for i, v := range stats.Verdicts {
		if v != No {
			t.Fatalf("trial %d verdict %s, want no", i, v)
		}
	}
	if stats.PrefixStats.Nodes != l.N() {
		t.Fatalf("prefix stats missing: %+v", stats.PrefixStats)
	}
}

// An empty instance is an explicit error, not a silent vacuous accept: the
// historical behaviour reported Estimate = 1 for a sweep that decided
// nothing, indistinguishable from a genuine all-yes instance.
func TestEvalTrialsEmptyGraph(t *testing.T) {
	l := graph.UniformlyLabeled(graph.New(0), "")
	dec := TrialDecider{Name: "coin", Horizon: 0, DecideRand: trialCoin(2)}
	stats, err := EvalTrials(dec, l, TrialOptions{Trials: 10, Seed: 1})
	if !errors.Is(err, ErrEmptyInstance) {
		t.Fatalf("empty graph: err = %v, want ErrEmptyInstance", err)
	}
	if stats.Trials != 0 || stats.Accepted != 0 || stats.Estimate != 0 {
		t.Fatalf("empty graph returned non-zero stats: %+v", stats)
	}
}

// Malformed deciders and options come back as errors with zero stats.
func TestEvalTrialsValidation(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(3), "u")
	expectErr := func(name string, dec TrialDecider, opts TrialOptions) {
		t.Helper()
		if _, err := EvalTrials(dec, l, opts); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	dec := TrialDecider{Name: "c", Horizon: 0, DecideRand: trialCoin(2)}
	expectErr("zero trials", dec, TrialOptions{Trials: 0})
	expectErr("nil DecideRand", TrialDecider{Name: "x", Horizon: 0}, TrialOptions{Trials: 1})
	expectErr("negative horizon", TrialDecider{Name: "x", Horizon: -1, DecideRand: trialCoin(2)}, TrialOptions{Trials: 1})
	expectErr("bad confidence", dec, TrialOptions{Trials: 1, Confidence: 1.5})
	expectErr("bad threshold", dec, TrialOptions{Trials: 1, AdaptiveStop: true, Threshold: 1.5})
}

// A decider that panics mid-sweep must not kill the process: the sweep stops,
// the committed in-order prefix comes back, and the panic surfaces as the
// returned error.
func TestEvalTrialsDeciderPanicRecovered(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(4), "u")
	for _, workers := range []int{1, 4} {
		var calls atomic.Int64
		dec := TrialDecider{
			Name:    "crashy",
			Horizon: 0,
			DecideRand: func(_ *graph.View, rng *rand.Rand) Verdict {
				if calls.Add(1) > 20 {
					panic("injected decider crash")
				}
				rng.Intn(2)
				return Yes
			},
			RandIgnoresView: true,
		}
		stats, err := EvalTrials(dec, l, TrialOptions{Trials: 1000, Seed: 3, Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: expected error from panicking decider", workers)
		}
		if stats.Trials >= 1000 {
			t.Fatalf("workers=%d: sweep did not stop after the panic: %+v", workers, stats)
		}
		if stats.Trials != stats.Accepted {
			t.Fatalf("workers=%d: committed prefix inconsistent: %+v", workers, stats)
		}
	}
}

// Stream independence (the truncated-constant regression): the seed-era
// derivation `seed ^ (node+1)*0x9e3779b97f4a7c` multiplies by an EVEN
// constant, so every node's source seed shared the sweep seed's low bit.
// The splitmix64 derivation must avalanche: low bits vary across adjacent
// nodes, trials, and seeds, and first coins are balanced.
func TestStreamIndependence(t *testing.T) {
	// The historical bug, pinned: the old derived seeds' low bit never moves.
	for _, seed := range []int64{0, 1, 42} {
		for v := 0; v < 16; v++ {
			old := seed ^ (int64(v+1) * 0x9e3779b97f4a7c)
			if old&1 != seed&1 {
				t.Fatalf("historical derivation unexpectedly varies its low bit; regression pin is stale")
			}
		}
	}

	// New derivation: low bit across nodes at a fixed seed.
	countLow := func(f func(i int) int64, n int) int {
		ones := 0
		for i := 0; i < n; i++ {
			ones += int(f(i) & 1)
		}
		return ones
	}
	const n = 256
	for _, seed := range []int64{0, 1, 42} {
		ones := countLow(func(v int) int64 { return streamSeed(seed, v) }, n)
		if ones < n/4 || ones > 3*n/4 {
			t.Errorf("seed %d: node-stream low bit ones = %d/%d, want ~%d", seed, ones, n, n/2)
		}
		ones = countLow(func(tr int) int64 { return TrialSeed(seed, tr) }, n)
		if ones < n/4 || ones > 3*n/4 {
			t.Errorf("seed %d: trial-seed low bit ones = %d/%d, want ~%d", seed, ones, n, n/2)
		}
	}
	// Across adjacent seeds at a fixed node.
	ones := countLow(func(s int) int64 { return streamSeed(int64(s), 0) }, n)
	if ones < n/4 || ones > 3*n/4 {
		t.Errorf("adjacent seeds: low bit ones = %d/%d, want ~%d", ones, n, n/2)
	}
	// First coin of each (trial, node) stream over a grid of both: a fair
	// coin must land fair, and distinct streams must not collapse.
	heads, distinct := 0, map[int64]bool{}
	for tr := 0; tr < 64; tr++ {
		tseed := TrialSeed(9, tr)
		for v := 0; v < 64; v++ {
			s := streamSeed(tseed, v)
			distinct[s] = true
			heads += newCoins(s).Intn(2)
		}
	}
	if heads < 64*64*2/5 || heads > 64*64*3/5 {
		t.Errorf("first coins: %d/%d heads, want ~half", heads, 64*64)
	}
	if len(distinct) != 64*64 {
		t.Errorf("stream seeds collide: %d distinct of %d", len(distinct), 64*64)
	}
}
