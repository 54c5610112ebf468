package fault

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/engine"
	"repro/internal/graph"
)

// Self-stabilization episodes: corrupt a decided instance's labels, then
// re-evaluate under sustained healing rounds and measure how long the system
// takes to return to a clean accepting verdict — and for how many rounds the
// corrupted state was EXPOSED (read as accepted while still corrupted). The
// exposure count is the experiment's sharpest number: a verifier whose label
// grammar catches the corruption model has zero exposure, one blind to it
// (label swaps between equal labels) accepts throughout.

// SelfStabConfig parameterises one self-stabilization episode family.
type SelfStabConfig struct {
	// Model is the label-corruption model applied at round zero.
	Model LabelModel
	// Rate is the corrupted fraction of nodes (at least one node).
	Rate float64
	// Decider is the verifier re-evaluated after each heal round.
	Decider engine.Decider
	// Options are the engine options of each evaluation (scheduler, dedup,
	// cache, early exit). A shared Options.Cache amortises re-evaluation
	// across rounds and episodes.
	Options engine.Options
	// Incremental, when set, runs each episode through a resident
	// engine.Incremental session instead of a from-scratch evaluation per
	// round: the corrupted instance is decided once, then every heal round
	// repairs only the radius-t balls around the victims healed that round.
	// Episode outcomes are identical either way — heal times derive from the
	// seed's SiteHeal streams independently of evaluation, and the session's
	// verdicts are parity-tested against from-scratch evaluation — but the
	// per-round work drops from O(n) to O(dirty). DirtyNodes records it.
	Incremental bool
}

// healProb is each victim's per-round heal probability (geometric heal
// times).
const healProb = 0.5

// maxRounds is the heal-round budget after which an unrecovered episode
// gives up. Every victim's heal time is capped at maxRounds, so full
// healing is guaranteed by the final round — an unrecovered episode means
// the verifier rejected a fully healed instance.
const maxRounds = 16

// Episode is the outcome of one corruption-heal-recover run.
type Episode struct {
	// Victims are the corrupted nodes, in selection order.
	Victims []int
	// ExposedRounds counts evaluation rounds (the initial corrupted one
	// included) in which corruption remained and the verifier accepted —
	// committed wrong verdicts.
	ExposedRounds int
	// RecoveryRound is the first heal round at which the instance was fully
	// healed and accepted, or -1 if that never happened within the budget.
	RecoveryRound int
	// Recovered reports RecoveryRound >= 0.
	Recovered bool
	// Evaluations counts engine evaluations the episode ran.
	Evaluations int
	// DirtyNodes totals the nodes re-decided by heal-round repairs when the
	// episode ran incrementally (the initial full decision is not counted;
	// always 0 for from-scratch episodes).
	DirtyNodes int
}

// RunEpisode corrupts l under cfg's model, then heals victims over rounds
// drawn from the seed's SiteHeal streams, re-evaluating cfg.Decider after
// each round until the verdict recovers or the budget runs out. The whole
// episode is a pure function of (l, cfg, seed).
func RunEpisode(l *graph.Labeled, cfg SelfStabConfig, seed int64) (Episode, error) {
	ep := Episode{RecoveryRound: -1}
	n := l.N()
	if n == 0 {
		return ep, engine.ErrEmptyInstance
	}
	k := int(cfg.Rate*float64(n) + 0.5)
	if k < 1 {
		k = 1
	}
	corrupted, victims := CorruptLabels(l, cfg.Model, k, seed)
	ep.Victims = victims

	// Per-victim heal rounds: geometric(healProb), capped at the budget so
	// the final round is always fully healed.
	healRound := make(map[int]int, len(victims))
	for _, v := range victims {
		s := streamFor(seed, SiteHeal, v, 0, 0)
		r := 1
		for r < maxRounds && s.Float64() >= healProb {
			r++
		}
		healRound[v] = r
	}

	working := corrupted
	remaining := len(victims)
	var inc *engine.Incremental
	if cfg.Incremental {
		session, err := engine.NewIncremental(cfg.Decider, working, cfg.Options)
		if err != nil {
			return ep, fmt.Errorf("fault: incremental episode session: %w", err)
		}
		inc = session
	}
	// evaluate re-decides the working instance after the given nodes' labels
	// were healed in place: a ball-sized repair on the resident session, or a
	// from-scratch sweep otherwise. The session's initial full decision stands
	// in for the round-zero evaluation.
	evaluate := func(healed []int) (bool, error) {
		ep.Evaluations++
		if inc != nil {
			ep.DirtyNodes += inc.InvalidateLabels(healed)
			if inc.Failed() > 0 {
				return false, fmt.Errorf("fault: episode evaluation failed: %w", inc.Outcome().Err)
			}
			return inc.Accepted(), nil
		}
		out := engine.EvalOblivious(cfg.Decider, working, cfg.Options)
		if out.Err != nil {
			return false, fmt.Errorf("fault: episode evaluation failed: %w", out.Err)
		}
		return out.Accepted, nil
	}

	// Round zero: the corrupted instance as injected.
	accepted, err := evaluate(nil)
	if err != nil {
		return ep, err
	}
	if accepted && remaining > 0 {
		ep.ExposedRounds++
	}
	var healedNow []int
	for round := 1; round <= maxRounds; round++ {
		healedNow = healedNow[:0]
		for _, v := range victims {
			if healRound[v] == round {
				working.Labels[v] = l.Labels[v]
				remaining--
				healedNow = append(healedNow, v)
			}
		}
		accepted, err := evaluate(healedNow)
		if err != nil {
			return ep, err
		}
		if remaining > 0 {
			if accepted {
				ep.ExposedRounds++
			}
			continue
		}
		if accepted {
			ep.RecoveryRound = round
			ep.Recovered = true
			break
		}
	}
	return ep, nil
}

// SweepStats aggregates a RecoverySweep.
type SweepStats struct {
	// Trials is the engine's per-episode acceptance statistics, where a
	// trial "accepts" iff its episode recovered within the budget — so
	// Estimate is the recovery probability with its Wilson interval.
	Trials engine.TrialStats
	// Episodes is the number of episodes run.
	Episodes int
	// MeanRecoveryRounds averages RecoveryRound over recovered episodes
	// (0 when none recovered).
	MeanRecoveryRounds float64
	// ExposedRounds totals corrupted-but-accepted evaluation rounds across
	// all episodes.
	ExposedRounds int
	// ExposedEpisodes counts episodes with at least one exposed round.
	ExposedEpisodes int
}

// RecoverySweep runs `trials` independent episodes through the engine's
// Monte Carlo subsystem — each trial derives its episode seed from the
// sweep's per-trial coin stream, so the sweep replays exactly from one seed —
// and aggregates recovery statistics. The per-episode engine work runs under
// cfg.Options; the sweep itself is paced by opts (trial count, seed, worker
// pool; adaptive stopping is rejected because the aggregate tallies need
// every trial to run exactly once).
func RecoverySweep(l *graph.Labeled, cfg SelfStabConfig, opts engine.TrialOptions) (SweepStats, error) {
	var sw SweepStats
	if opts.AdaptiveStop {
		return sw, fmt.Errorf("fault: RecoverySweep does not support adaptive stopping")
	}
	var (
		mu        sync.Mutex
		sumRounds int
		recovered int
		firstErr  error
	)
	host := graph.UniformlyLabeled(graph.New(1), "episode")
	dec := engine.TrialDecider{
		Name:    "selfstab/" + cfg.Model.String(),
		Horizon: 0,
		DecideRand: func(_ *graph.View, rng *rand.Rand) engine.Verdict {
			ep, err := RunEpisode(l, cfg, rng.Int63())
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				panic(err) // recovered by the trial engine; stops the sweep
			}
			sw.Episodes++
			sw.ExposedRounds += ep.ExposedRounds
			if ep.ExposedRounds > 0 {
				sw.ExposedEpisodes++
			}
			if ep.Recovered {
				recovered++
				sumRounds += ep.RecoveryRound
			}
			return engine.Verdict(ep.Recovered)
		},
		RandIgnoresView: true,
	}
	stats, err := engine.EvalTrials(dec, host, opts)
	sw.Trials = stats
	if recovered > 0 {
		sw.MeanRecoveryRounds = float64(sumRounds) / float64(recovered)
	}
	if firstErr != nil {
		return sw, firstErr
	}
	return sw, err
}
