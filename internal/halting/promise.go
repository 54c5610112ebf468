package halting

import (
	"fmt"

	"repro/internal/decide"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/turing"
)

// This file implements Section 3's warm-up promise problem R:
//
//	Instances are labelled graphs (G, M) where G is an n-cycle and the
//	constant label encodes a Turing machine M. Promise: if M halts in
//	exactly s steps, then n >= s. Yes-instance: M runs forever.
//	No-instance: M halts.
//
// With identifiers the problem is locally decidable (a node with identifier
// i simulates M for i steps; the promise puts some identifier past M's
// runtime). An Id-oblivious algorithm would have to decide the halting
// problem from (M, a bounded view of an anonymous cycle) — impossible; the
// experiments demonstrate the failure of every budgeted decider.

// MachineCycleLabel is the constant label of the promise-R instances.
func MachineCycleLabel(m *turing.Machine) graph.Label {
	return "pr{" + m.Encode() + "}"
}

// PromiseRInstance builds the n-cycle labelled with machine m.
func PromiseRInstance(m *turing.Machine, n int) *graph.Labeled {
	return graph.UniformlyLabeled(graph.Cycle(n), MachineCycleLabel(m))
}

// PromiseR bundles yes (non-halting machines) and no (halting machines,
// n >= runtime) instances for the decision harness.
func PromiseR(yes []*turing.Machine, no []*turing.Machine, maxSteps int) (*decide.PromiseProblem, error) {
	prob := &decide.PromiseProblem{Name: "promise-R"}
	for _, m := range yes {
		if _, halted := turing.Runtime(m, maxSteps); halted {
			return nil, fmt.Errorf("halting: %q halts; cannot be a yes-instance", m.Name)
		}
		// Any cycle size satisfies the promise for a non-halting machine;
		// keep it small because deciders simulate for Id(v) steps per node.
		prob.Yes = append(prob.Yes, PromiseRInstance(m, 12))
	}
	for _, m := range no {
		s, halted := turing.Runtime(m, maxSteps)
		if !halted {
			return nil, fmt.Errorf("halting: %q does not halt within %d steps", m.Name, maxSteps)
		}
		// n = s+1 so that (with identifiers allowed to start at 0) the
		// largest of the n distinct identifiers is at least s.
		n := s + 1
		if n < 3 {
			n = 3
		}
		prob.No = append(prob.No, PromiseRInstance(m, n))
	}
	return prob, nil
}

// PromiseRIDDecider is the ID-using decider: parse M from the label,
// simulate for Id(v) steps, reject if M stops within the budget. Machines
// are resolved through the provided registry (labels carry the encoding; the
// registry maps encodings back to machines, standing in for a decoder).
// Each machine's simulations share one resumable memo, so a cycle's nodes
// step M once to their largest identifier, not once per node.
func PromiseRIDDecider(registry []*turing.Machine) local.Algorithm {
	byLabel := make(map[graph.Label]*turing.RunMemo, len(registry))
	for _, m := range registry {
		byLabel[MachineCycleLabel(m)] = turing.NewRunMemo(m)
	}
	return local.AlgorithmFunc("promise-R-id-decider", 1, func(view *graph.View) local.Verdict {
		memo, ok := byLabel[view.Labels[view.Root]]
		if !ok {
			return local.No
		}
		if view.G.Degree(view.Root) != 2 {
			return local.No
		}
		if res, err := memo.Run(view.RootID()); err == nil && res.Halted {
			return local.No
		}
		return local.Yes
	})
}

// PromiseRBudgetedOblivious is the natural Id-oblivious attempt: simulate M
// for a FIXED budget (no identifier to scale with). It is fooled by any
// halting machine whose runtime exceeds the budget — the experiments
// quantify this.
func PromiseRBudgetedOblivious(registry []*turing.Machine, budget int) local.ObliviousAlgorithm {
	byLabel := make(map[graph.Label]*turing.Machine, len(registry))
	for _, m := range registry {
		byLabel[MachineCycleLabel(m)] = m
	}
	name := fmt.Sprintf("promise-R-budgeted(%d)", budget)
	return local.ObliviousFunc(name, 1, func(view *graph.View) local.Verdict {
		m, ok := byLabel[view.Labels[view.Root]]
		if !ok {
			return local.No
		}
		if view.G.Degree(view.Root) != 2 {
			return local.No
		}
		if _, halted := turing.Runtime(m, budget); halted {
			return local.No
		}
		return local.Yes
	})
}
