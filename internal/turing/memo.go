package turing

import "sync"

// RunMemo answers Run for one machine at every step budget from one
// resumable simulation. "M halts within b steps" is monotone in b, and so
// are Run's two errors: a missing transition and a head moving off the
// left tape end each happen at a fixed step. So one record answers every
// budget: the halting step and output once known, the failing step and its
// error once hit, and otherwise the furthest step reached, with the tape,
// head, state and dense table to continue from there. A budget beyond that
// point continues the run, so no step is simulated twice.
//
// The Section 3 deciders call Run once per node with identifier- or
// coin-scaled budgets: E1's and E8's simulate for Id(v) steps, and
// Corollary 1's randomised decider for a budget drawn from at most 15
// values per trial and node. Across nodes and trials they all share one
// simulation per machine.
//
// A RunMemo is safe for concurrent use by the engine's workers. Budgets the
// record already covers are answered under the read lock; a larger budget
// extends the run under the write lock, and concurrent callers wait for it
// rather than duplicate the steps. Answers carry no Final configuration.
type RunMemo struct {
	mu  sync.RWMutex
	sim simulation
}

// NewRunMemo returns a memo for m that has simulated nothing yet.
func NewRunMemo(m *Machine) *RunMemo {
	return &RunMemo{sim: simulation{m: m}}
}

// Machine returns the memoised machine.
func (rm *RunMemo) Machine() *Machine { return rm.sim.m }

// Run is Run(Machine(), maxSteps) without Result.Final.
func (rm *RunMemo) Run(maxSteps int) (Result, error) {
	rm.mu.RLock()
	if rm.sim.covers(maxSteps) {
		res, err := rm.sim.result(maxSteps)
		rm.mu.RUnlock()
		return res, err
	}
	rm.mu.RUnlock()
	rm.mu.Lock()
	defer rm.mu.Unlock()
	rm.sim.advance(maxSteps)
	return rm.sim.result(maxSteps)
}

// Steps reports how many transitions the memo has simulated: the step its
// run has reached, whatever the budgets that took it there.
func (rm *RunMemo) Steps() int {
	rm.mu.RLock()
	defer rm.mu.RUnlock()
	return rm.sim.steps
}
