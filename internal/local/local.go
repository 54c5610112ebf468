// Package local implements the LOCAL model of distributed computing as used
// by the paper: constant-horizon local algorithms evaluated on radius-t
// views, in both the ID-using and the Id-oblivious variants. Evaluation
// itself — batched view extraction, scheduling, deduplication, aggregation —
// lives in internal/engine; this package defines the algorithm interfaces of
// the paper's model and adapts them onto the engine. The entry points Run,
// RunOblivious and RunMessagePassingOblivious are thin wrappers selecting an
// engine scheduler, and EstimateAcceptance and AcceptanceTrials run a
// randomized algorithm's Monte Carlo trials; EngineDecider and its siblings
// adapt an algorithm for calling the engine directly (on another scheduler,
// with a coin seed, or an ID-using algorithm on the message-passing
// runtime).
package local

import (
	"fmt"
	"math/rand"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Verdict is a node's local output in a decision task. It is the engine's
// verdict type; Yes/No and String come with it.
type Verdict = engine.Verdict

// Local outputs. A property holds globally iff every node says Yes; it fails
// iff at least one node says No.
const (
	Yes Verdict = true
	No  Verdict = false
)

// Outcome is the result of running a decision algorithm on an instance
// (the engine's outcome, including evaluation stats).
type Outcome = engine.Outcome

// Algorithm is an ID-using local algorithm: a function of the radius-t view
// (G, x, Id) |> B(v, t). Implementations must be deterministic functions of
// the view. Under assumption (C) they are ordinary computable Go functions;
// assumption (¬C) is modelled by algorithms that consult an ids.Oracle.
type Algorithm interface {
	// Name identifies the algorithm in reports.
	Name() string
	// Horizon is the constant local horizon t.
	Horizon() int
	// Decide maps the view of a node, identifiers included, to its verdict.
	Decide(view *graph.View) Verdict
}

// ObliviousAlgorithm is an Id-oblivious local algorithm: a function of the
// view without identifiers. Obliviousness is structural — implementations
// never see IDs, so A(G, x, Id, v) = A(G, x, Id', v) holds by construction.
// Per the LOCAL model, implementations must depend only on the isomorphism
// class of the rooted view (not on its internal numbering or on
// View.Original); the engine's canonical-view deduplication relies on this
// when a caller enables it.
type ObliviousAlgorithm interface {
	Name() string
	Horizon() int
	// DecideOblivious maps the ID-free view of a node to its verdict.
	DecideOblivious(view *graph.View) Verdict
}

// RandomizedAlgorithm is an Id-oblivious algorithm whose nodes additionally
// toss coins: each node receives its own pseudo-random stream.
type RandomizedAlgorithm interface {
	Name() string
	Horizon() int
	DecideRandomized(view *graph.View, rng *rand.Rand) Verdict
}

// EngineDecider adapts an ID-using algorithm to the engine's decider type.
func EngineDecider(alg Algorithm) engine.Decider {
	return engine.Decider{Name: alg.Name(), Horizon: alg.Horizon(), Decide: alg.Decide}
}

// EngineObliviousDecider adapts an Id-oblivious algorithm to the engine's
// decider type.
func EngineObliviousDecider(alg ObliviousAlgorithm) engine.Decider {
	return engine.Decider{Name: alg.Name(), Horizon: alg.Horizon(), Decide: alg.DecideOblivious}
}

// EngineRandomizedDecider adapts a randomized algorithm to the engine's
// decider type.
func EngineRandomizedDecider(alg RandomizedAlgorithm) engine.Decider {
	return engine.Decider{Name: alg.Name(), Horizon: alg.Horizon(), DecideRand: alg.DecideRandomized}
}

// Run evaluates an ID-using algorithm on every node of an instance by direct
// view extraction.
func Run(alg Algorithm, in *graph.Instance) Outcome {
	return engine.Eval(EngineDecider(alg), in, engine.Options{Scheduler: engine.Sequential})
}

// RunOblivious evaluates an Id-oblivious algorithm on every node of a
// labelled graph. No identifiers are involved at any point.
func RunOblivious(alg ObliviousAlgorithm, l *graph.Labeled) Outcome {
	return engine.EvalOblivious(EngineObliviousDecider(alg), l, engine.Options{Scheduler: engine.Sequential})
}

// EngineTrialDecider adapts a randomized algorithm to the trial engine's
// decider type (no deterministic prefix; algorithms with a coin-free stage
// worth factoring build an engine.TrialDecider directly, as
// halting.Params.TrialDecider does).
func EngineTrialDecider(alg RandomizedAlgorithm) engine.TrialDecider {
	return engine.TrialDecider{Name: alg.Name(), Horizon: alg.Horizon(), DecideRand: alg.DecideRandomized}
}

// AcceptanceTrials runs a randomized algorithm through the engine's Monte
// Carlo subsystem: trials×nodes randomized decisions on the trial worker
// pool, per-trial early exit, deterministic per-(trial, node) coin streams,
// and — when the options ask for it — adaptive stopping on the acceptance
// estimate's confidence interval. Malformed options and crashing deciders
// come back as errors (possibly with partial committed statistics).
func AcceptanceTrials(alg RandomizedAlgorithm, l *graph.Labeled, opts engine.TrialOptions) (engine.TrialStats, error) {
	return engine.EvalTrials(EngineTrialDecider(alg), l, opts)
}

// EstimateAcceptance runs a randomized algorithm over `trials` independent
// per-trial coin derivations and returns the fraction of trials in which the
// instance was accepted (all nodes Yes) — the fixed-trial-count wrapper over
// AcceptanceTrials. Each trial early-exits at the first rejecting node.
func EstimateAcceptance(alg RandomizedAlgorithm, l *graph.Labeled, trials int, seed int64) (float64, error) {
	stats, err := AcceptanceTrials(alg, l, engine.TrialOptions{Trials: trials, Seed: seed})
	if err != nil {
		return 0, err
	}
	return stats.Estimate, nil
}

// AsOblivious adapts an ObliviousAlgorithm to the Algorithm interface by
// stripping identifiers before deciding. This witnesses LD* ⊆ LD.
func AsOblivious(alg ObliviousAlgorithm) Algorithm {
	return obliviousAdapter{alg: alg}
}

type obliviousAdapter struct {
	alg ObliviousAlgorithm
}

func (a obliviousAdapter) Name() string { return a.alg.Name() + "/as-ld" }
func (a obliviousAdapter) Horizon() int { return a.alg.Horizon() }
func (a obliviousAdapter) Decide(view *graph.View) Verdict {
	return a.alg.DecideOblivious(view.StripIDs())
}

// Func adapters ---------------------------------------------------------------

// AlgorithmFunc builds an Algorithm from a function.
func AlgorithmFunc(name string, horizon int, decide func(view *graph.View) Verdict) Algorithm {
	return funcAlgorithm{name: name, horizon: horizon, decide: decide}
}

type funcAlgorithm struct {
	name    string
	horizon int
	decide  func(view *graph.View) Verdict
}

func (f funcAlgorithm) Name() string                    { return f.name }
func (f funcAlgorithm) Horizon() int                    { return f.horizon }
func (f funcAlgorithm) Decide(view *graph.View) Verdict { return f.decide(view) }

// ObliviousFunc builds an ObliviousAlgorithm from a function.
func ObliviousFunc(name string, horizon int, decide func(view *graph.View) Verdict) ObliviousAlgorithm {
	return funcOblivious{name: name, horizon: horizon, decide: decide}
}

type funcOblivious struct {
	name    string
	horizon int
	decide  func(view *graph.View) Verdict
}

func (f funcOblivious) Name() string                             { return f.name }
func (f funcOblivious) Horizon() int                             { return f.horizon }
func (f funcOblivious) DecideOblivious(view *graph.View) Verdict { return f.decide(view) }

// RandomizedFunc builds a RandomizedAlgorithm from a function.
func RandomizedFunc(name string, horizon int, decide func(view *graph.View, rng *rand.Rand) Verdict) RandomizedAlgorithm {
	return funcRandomized{name: name, horizon: horizon, decide: decide}
}

type funcRandomized struct {
	name    string
	horizon int
	decide  func(view *graph.View, rng *rand.Rand) Verdict
}

func (f funcRandomized) Name() string { return f.name }
func (f funcRandomized) Horizon() int { return f.horizon }
func (f funcRandomized) DecideRandomized(view *graph.View, rng *rand.Rand) Verdict {
	return f.decide(view, rng)
}

// CheckOblivious verifies empirically that an ID-using algorithm is
// Id-oblivious on a given labelled graph: its verdict vector must not change
// across the provided identifier assignments. It returns an error naming the
// offending node on the first discrepancy.
func CheckOblivious(alg Algorithm, l *graph.Labeled, assignments [][]int) error {
	if len(assignments) < 2 {
		return fmt.Errorf("local: need at least two assignments to compare")
	}
	base := Run(alg, graph.NewInstance(l, assignments[0]))
	for i, ids := range assignments[1:] {
		out := Run(alg, graph.NewInstance(l, ids))
		for v := range out.Verdicts {
			if out.Verdicts[v] != base.Verdicts[v] {
				return fmt.Errorf("local: %s is ID-sensitive: node %d flips %s -> %s under assignment %d",
					alg.Name(), v, base.Verdicts[v], out.Verdicts[v], i+1)
			}
		}
	}
	return nil
}
