package engine

import "sort"

// This file holds the bookkeeping of nodes whose every decide attempt
// crashed. The guarded decide itself (kernel.go) runs every decider
// invocation inside a recover guard with a bounded retry loop, so a
// panicking decider (or an injected crash from Options.Faults) costs one
// node's verdict at worst — recorded as a VerdictError on the Outcome —
// instead of killing the whole process. A retry re-runs a pure decide at
// once, with no sleep: an injected crash depends only on (node, attempt)
// and a genuine panic repeats, so waiting could change only wall time,
// never a verdict or a counter. Fault-free overhead is one nil check plus
// an open-coded defer per node, gated ≤5% by the
// BenchmarkDedupMiss/cycle512-r16 and BenchmarkTrialThroughput rows of
// scripts/benchgate.

// recordErr appends a node failure under the job's lock (workers record
// concurrently; outcome() sorts).
func (j *job) recordErr(e VerdictError) {
	j.mu.Lock()
	j.errs = append(j.errs, e)
	j.mu.Unlock()
}

// sortVerdictErrors orders failures by node index so Outcome.Errs is
// deterministic across worker counts and schedulers.
func sortVerdictErrors(errs []VerdictError) {
	sort.Slice(errs, func(i, k int) bool { return errs[i].Node < errs[k].Node })
}
