package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// This file is the engine's Monte Carlo subsystem: randomized deciders
// (Corollary 1's Id-oblivious decider is the motivating one) are evaluated
// over many independent trials, each trial being one full instance
// evaluation with fresh per-node coins. Trials are a first-class engine
// workload: they run on a worker pool with per-worker extraction scratch,
// per-trial early exit, deterministic per-(trial, node) coin streams, and an
// adaptive stopping rule on the acceptance estimate — while returning
// results that are bit-identical for every worker count.

// splitmix64 stream derivation ------------------------------------------------

// golden64 is the splitmix64 increment (the 64-bit golden ratio). The
// seed-era coin derivation XORed the node index with a truncated (56-bit,
// even) version of this constant, which left the low bit of every derived
// seed equal across all nodes; the splitmix64 finalizer below avalanches all
// 64 bits instead.
const golden64 = 0x9e3779b97f4a7c15

// mix64 is the splitmix64 finalizer: a bijective avalanche of all 64 bits,
// so consecutive inputs (adjacent nodes, trials, seeds) yield statistically
// independent outputs.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// streamSeed derives node v's coin-stream seed from an evaluation seed: one
// splitmix64 step into the seed's stream, indexed by node. Shared by
// single-evaluation randomized deciders (Options.Seed) and the trial engine
// (per-trial seeds from TrialSeed), so trial t of EvalTrials replays exactly
// as Eval/EvalOblivious with Options.Seed = TrialSeed(seed, t).
func streamSeed(seed int64, v int) int64 {
	return int64(mix64(uint64(seed) + golden64*uint64(v+1)))
}

// TrialSeed derives the evaluation seed of one trial from the sweep seed:
// trial t of EvalTrials(dec, l, TrialOptions{Seed: s, ...}) draws exactly
// the coins of a single evaluation with Options.Seed = TrialSeed(s, t), so
// any trial subset is reproducible from the one sweep seed.
func TrialSeed(seed int64, trial int) int64 {
	return int64(mix64(mix64(uint64(seed)+golden64) + golden64*uint64(trial+1)))
}

// coinSource is a rand.Source64 over the splitmix64 stream. Unlike
// rand.NewSource (whose lagged-Fibonacci state costs ~600 words of seeding
// per stream), reseeding is one store — cheap enough to derive a fresh
// stream per (trial, node) in the trial engine's inner loop.
type coinSource struct{ state uint64 }

func (s *coinSource) Seed(seed int64) { s.state = uint64(seed) }

func (s *coinSource) Uint64() uint64 {
	s.state += golden64
	return mix64(s.state)
}

func (s *coinSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// newCoins returns the coin stream for one derived stream seed.
func newCoins(seed int64) *rand.Rand { return rand.New(&coinSource{state: uint64(seed)}) }

// Trial evaluation ------------------------------------------------------------

// TrialDecider is a randomized decision procedure factored for trial sweeps:
// an optional deterministic prefix stage plus the coin-dependent stage.
type TrialDecider struct {
	// Name identifies the decider in reports.
	Name string
	// Horizon is the constant local horizon t of both stages.
	Horizon int
	// Prefix is the optional coin-free stage. A node's verdict is the
	// conjunction Prefix(view) ∧ DecideRand(view, coins), and conjunctions
	// distribute over the all-nodes aggregation, so the engine evaluates the
	// prefix ONCE per sweep — through the deduplicating engine with early
	// exit — instead of once per trial: if it rejects, every trial rejects
	// deterministically; if it accepts, trials run only the random stage.
	// Prefix must be a deterministic function of the view's isomorphism
	// class (the dedup contract, see Options.Dedup).
	Prefix func(view *graph.View) Verdict
	// PrefixDedup enables canonical-view deduplication for the prefix
	// evaluation. Worthwhile only when the prefix outweighs the cache key
	// (one raw-code fingerprint per view, one canonical code per miss —
	// see Options.Dedup); for constant-time structural checks the key costs
	// more than the verdicts it saves.
	PrefixDedup bool
	// DecideRand is the coin-dependent stage. Each (trial, node) pair gets
	// its own deterministic stream; see TrialSeed.
	DecideRand func(view *graph.View, rng *rand.Rand) Verdict
	// RandIgnoresView declares that DecideRand never reads its view (the
	// Corollary 1 budget stage is coins + simulation only). The trial loop
	// then skips view extraction entirely and passes a nil view.
	RandIgnoresView bool
}

// Interval is a two-sided confidence interval on a probability.
type Interval struct {
	// Low and High bound the interval, within [0, 1].
	Low, High float64
}

// Separates reports whether the interval excludes p — the adaptive
// stopping criterion of EvalTrials once enough trials have committed.
func (iv Interval) Separates(p float64) bool { return iv.Low > p || iv.High < p }

// TrialOptions tune one Monte Carlo sweep.
type TrialOptions struct {
	// Trials is the maximum number of trials; it must be positive. Without
	// adaptive stopping exactly this many trials run.
	Trials int
	// Seed drives every trial's coin streams; see TrialSeed.
	Seed int64
	// Workers caps the trial-level worker pool (0 means GOMAXPROCS, further
	// capped at Trials). Results are identical for every worker count:
	// trials are committed in trial order regardless of completion order.
	Workers int
	// Confidence is the confidence level of the reported Wilson interval
	// (and of the stopping rule); 0 means 0.95.
	Confidence float64
	// AdaptiveStop halts the sweep once the Wilson interval at Confidence
	// separates from Threshold (after at least MinTrials trials): further
	// trials cannot move the estimate back across the threshold with the
	// asked-for confidence, so their cost buys nothing.
	AdaptiveStop bool
	// Threshold is the acceptance-probability threshold the stopping rule
	// tests against; meaningful only with AdaptiveStop.
	Threshold float64
	// MinTrials is the floor below which the stopping rule never fires
	// (0 means 16): Wilson intervals on a handful of trials are wide but
	// not wide enough to survive unlucky streaks.
	MinTrials int
	// Ctx, when set, bounds the sweep: workers poll it between trials and
	// the sweep returns the committed in-order prefix alongside an error
	// wrapping ctx.Err() — a serving layer's per-request deadline cuts a
	// sweep short with honest partial statistics, exactly like a decider
	// panic does. Nil means no deadline.
	Ctx context.Context
}

// TrialStats is the outcome of a Monte Carlo sweep. For a fixed seed every
// committed statistic — Trials, Accepted, Estimate, CI, Confidence,
// Stopped, the prefix fields and Verdicts — is a pure function of the
// inputs: worker count and scheduling cannot change it. Evaluated and
// Workers describe the run instead and are schedule-dependent.
type TrialStats struct {
	// Trials is the number of trials actually committed (fewer than
	// requested when the stopping rule fired).
	Trials int
	// Accepted counts committed trials in which every node said Yes.
	Accepted int
	// Estimate is Accepted / Trials, the acceptance-probability estimate.
	Estimate float64
	// CI is the Wilson score interval on Estimate at Confidence.
	CI Interval
	// Confidence is the confidence level CI was computed at.
	Confidence float64
	// Stopped reports that the adaptive stopping rule ended the sweep
	// before Trials reached the requested maximum.
	Stopped bool
	// PrefixRejected reports that the deterministic prefix stage rejected:
	// every trial rejects with probability 1 and no random stage ran.
	PrefixRejected bool
	// PrefixStats carries the engine stats of the prefix evaluation (zero
	// when the decider has no prefix).
	PrefixStats Stats
	// Evaluated counts DecideRand invocations across all committed and
	// discarded trials (per-trial early exit keeps it below Trials×Nodes).
	// It is schedule-dependent but bounded: a worker decides trial t only
	// while t < committed + trialLead×Workers, so past the committed prefix
	// at most that many trials can run ahead and be discarded by the
	// adaptive stop or an error.
	Evaluated int
	// Workers is the size of the trial worker pool, which follows
	// TrialOptions.Workers and GOMAXPROCS; it is schedule-dependent too.
	Workers int
	// Verdicts is the per-trial acceptance verdict sequence, indexed by
	// trial: Verdicts[t] is Yes iff trial t accepted. Length Trials.
	Verdicts []Verdict
}

// ValidateTrials reports an error unless the trial count is positive. It is
// the shared validation of every trial entry point (engine.EvalTrials and,
// through it, local.EstimateAcceptance and halting.RejectionTrials), keeping
// the message consistent across layers.
func ValidateTrials(trials int) error {
	if trials < 1 {
		return fmt.Errorf("engine: trials must be positive, got %d", trials)
	}
	return nil
}

// WilsonInterval returns the Wilson score interval for accepted successes
// out of trials at the given confidence level (0 means 0.95). Unlike the
// normal approximation it behaves at the boundaries p̂ ∈ {0, 1} — exactly
// where Corollary 1's decider lives (yes-instances are never rejected).
func WilsonInterval(accepted, trials int, confidence float64) Interval {
	if trials <= 0 {
		return Interval{Low: 0, High: 1}
	}
	z := zScore(confidence)
	n := float64(trials)
	p := float64(accepted) / n
	denom := 1 + z*z/n
	center := (p + z*z/(2*n)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/n+z*z/(4*n*n))
	return Interval{Low: math.Max(0, center-half), High: math.Min(1, center+half)}
}

// zScore converts a two-sided confidence level to the normal quantile z.
// Callers that accept external input validate through validConfidence first;
// the panic here only guards WilsonInterval's documented contract.
func zScore(confidence float64) float64 {
	if confidence == 0 {
		confidence = defaultConfidence
	}
	if confidence <= 0 || confidence >= 1 {
		panic("engine: confidence must be in (0, 1)")
	}
	return math.Sqrt2 * math.Erfinv(confidence)
}

// validConfidence checks a confidence level (0 meaning the default) without
// panicking.
func validConfidence(confidence float64) error {
	if confidence != 0 && (confidence <= 0 || confidence >= 1) {
		return fmt.Errorf("engine: confidence must be in (0, 1), got %v", confidence)
	}
	return nil
}

// defaultConfidence is the confidence level used when TrialOptions leaves it
// zero.
const defaultConfidence = 0.95

// defaultMinTrials is the adaptive-stopping floor when TrialOptions leaves
// MinTrials zero.
const defaultMinTrials = 16

// trialLead is how many trials per worker the sweep may decide past its
// committed in-order prefix: enough to keep every worker busy while one
// trial runs long, few enough that a stop discards little work.
const trialLead = 4

// EvalTrials runs a Monte Carlo sweep of a randomized decider over a
// labelled graph (the Id-oblivious regime, where coins substitute for
// identifiers): up to opts.Trials independent trials, each evaluating every
// node with fresh deterministic coins and early-exiting at its first No.
//
// The deterministic prefix stage (when present) runs once through the
// deduplicating engine before any trial. Trials then run on a worker pool,
// but are committed strictly in trial order and the stopping rule is
// evaluated only on committed prefixes — so Trials, Estimate, CI and the
// per-trial verdict sequence are identical for every worker count, and any
// single trial can be replayed via TrialSeed. A worker waits before
// deciding a trial more than trialLead×workers past the committed prefix,
// and wakes on every commit and on stop, so the work a stop discards stays
// bounded.
//
// Malformed deciders or options are returned as errors. A trial whose
// decider panics is recovered: the sweep stops, and the statistics of the
// committed in-order prefix are returned alongside the error — partial
// data, clearly flagged, instead of a dead process.
func EvalTrials(dec TrialDecider, l *graph.Labeled, opts TrialOptions) (TrialStats, error) {
	if dec.DecideRand == nil {
		return TrialStats{}, errors.New("engine: TrialDecider.DecideRand must be set")
	}
	if dec.Horizon < 0 {
		return TrialStats{}, fmt.Errorf("engine: negative horizon %d", dec.Horizon)
	}
	if err := ValidateTrials(opts.Trials); err != nil {
		return TrialStats{}, err
	}
	if err := validConfidence(opts.Confidence); err != nil {
		return TrialStats{}, err
	}
	if opts.AdaptiveStop && (opts.Threshold < 0 || opts.Threshold > 1 || math.IsNaN(opts.Threshold)) {
		return TrialStats{}, fmt.Errorf("engine: adaptive-stop threshold must be in [0, 1], got %v", opts.Threshold)
	}
	if l.N() == 0 {
		return TrialStats{}, ErrEmptyInstance
	}
	confidence := opts.Confidence
	if confidence == 0 {
		confidence = defaultConfidence
	}
	minTrials := opts.MinTrials
	if minTrials <= 0 {
		minTrials = defaultMinTrials
	}
	workers := poolWidth(opts.Workers, opts.Trials)

	stats := TrialStats{Confidence: confidence, Workers: workers}

	// Deterministic prefix: one deduplicated, early-exiting evaluation for
	// the whole sweep.
	if dec.Prefix != nil {
		sched := Sequential
		if workers > 1 {
			sched = ShardedWith(workers)
		}
		prefix := Decider{Name: dec.Name + "/prefix", Horizon: dec.Horizon, Decide: dec.Prefix}
		out := EvalOblivious(prefix, l, Options{Scheduler: sched, Dedup: dec.PrefixDedup, EarlyExit: true, Ctx: opts.Ctx})
		stats.PrefixStats = out.Stats
		if out.Err != nil {
			// A crashed or invalid prefix evaluation is not a rejection: the
			// sweep's premise failed, so surface the error with no trials.
			return stats, fmt.Errorf("engine: prefix evaluation failed: %w", out.Err)
		}
		if !out.Accepted {
			stats.PrefixRejected = true
			stats.Trials = opts.Trials
			stats.Verdicts = make([]Verdict, opts.Trials) // all No
			stats.Estimate = 0
			stats.CI = WilsonInterval(0, opts.Trials, confidence)
			return stats, nil
		}
	}

	n := l.N()
	window := trialLead * workers
	var (
		p    = pool{n: opts.Trials, width: workers}
		stop atomic.Bool
		mu   sync.Mutex
		// advanced wakes workers waiting for the committed prefix, on every
		// commit and on stop.
		advanced = sync.NewCond(&mu)
		// The in-order commit buffers grow with the trials claimed so far,
		// never with opts.Trials: a sweep cut short by its deadline or by
		// the stopping rule pays only for the trials it ran.
		done     []bool
		verdicts []Verdict

		committed int
		accepted  int
		stopped   bool
		evaluated int
		sweepErr  error
	)

	// commit records finished trial t, then folds newly finished trials into
	// the in-order prefix and evaluates the stopping rule at each new prefix
	// point. Called with mu held.
	commit := func(t int, verdict Verdict) {
		if t >= len(done) {
			done = append(done, make([]bool, t+1-len(done))...)
			verdicts = append(verdicts, make([]Verdict, t+1-len(verdicts))...)
		}
		done[t], verdicts[t] = true, verdict
		for committed < len(done) && done[committed] && !stopped {
			if verdicts[committed] == Yes {
				accepted++
			}
			committed++
			if opts.AdaptiveStop && committed >= minTrials &&
				WilsonInterval(accepted, committed, confidence).Separates(opts.Threshold) {
				stopped = true
				stop.Store(true)
			}
		}
		if committed == opts.Trials {
			stop.Store(true)
		}
		advanced.Broadcast()
	}

	// halt stops the sweep with err unless an earlier error won, waking
	// every waiting worker. Called with mu held.
	halt := func(err error) {
		if sweepErr == nil {
			sweepErr = err
		}
		stop.Store(true)
		advanced.Broadcast()
	}

	// runTrial is one trial's coin-stage evaluation, guarded: a decider panic
	// becomes a returned error instead of killing the sweep's process.
	runTrial := func(t int, x *graph.ViewExtractor, coins *rand.Rand, decided *int) (verdict Verdict, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("engine: trial %d: decider panicked: %v", t, r)
			}
		}()
		tseed := TrialSeed(opts.Seed, t)
		verdict = Yes
		for v := 0; v < n; v++ {
			coins.Seed(streamSeed(tseed, v))
			var view *graph.View
			if x != nil {
				view = x.At(v, dec.Horizon)
			}
			*decided++
			if dec.DecideRand(view, coins) == No {
				verdict = No
				break
			}
		}
		return verdict, nil
	}

	var poll cancelPoll
	if opts.Ctx != nil {
		poll.done = opts.Ctx.Done()
	}

	p.run(func(int) {
		var x *graph.ViewExtractor
		if !dec.RandIgnoresView {
			x = graph.NewViewExtractor(l)
		}
		coins := rand.New(&coinSource{})
		decided := 0
		for t, more := p.claim(); more && !stop.Load(); t, more = p.claim() {
			mu.Lock()
			for t >= committed+window && !stop.Load() {
				advanced.Wait()
			}
			mu.Unlock()
			if stop.Load() {
				break
			}
			if poll.checkCanceled() {
				mu.Lock()
				halt(fmt.Errorf("engine: trial sweep canceled: %w", opts.Ctx.Err()))
				mu.Unlock()
				break
			}
			verdict, err := runTrial(t, x, coins, &decided)
			mu.Lock()
			if err != nil {
				// First error wins; the sweep stops and the committed in-order
				// prefix is what the caller gets back.
				halt(err)
				mu.Unlock()
				break
			}
			commit(t, verdict)
			mu.Unlock()
		}
		mu.Lock()
		evaluated += decided
		mu.Unlock()
	})

	stats.Trials = committed
	stats.Accepted = accepted
	if committed > 0 {
		stats.Estimate = float64(accepted) / float64(committed)
	}
	stats.CI = WilsonInterval(accepted, committed, confidence)
	stats.Stopped = stopped
	stats.Evaluated = evaluated
	stats.Verdicts = verdicts[:committed]
	return stats, sweepErr
}
