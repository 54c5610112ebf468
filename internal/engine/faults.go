package engine

import (
	"sort"
	"time"
)

// This file holds the engine's crash-hardening policy: the retry backoff
// and the bookkeeping of nodes whose every attempt crashed. The guarded
// decide itself (kernel.go) runs every decider invocation inside a recover
// guard with a bounded retry-and-backoff loop, so a panicking decider (or an
// injected crash from Options.Faults) costs one node's verdict at worst —
// recorded as a VerdictError on the Outcome — instead of killing the whole
// process. Fault-free overhead is one nil check plus an open-coded defer per
// node, gated ≤5% by the BenchmarkDedupMiss/cycle512-r16 and
// BenchmarkTrialThroughput rows of scripts/benchgate.

// retryBackoffCap bounds the exponential retry backoff: beyond it further
// attempts wait the capped duration (with jitter) instead of doubling on —
// a node with a persistently crashing decider must not stall its worker for
// seconds before the VerdictError is recorded.
const retryBackoffCap = 10 * time.Millisecond

// backoffSleep sleeps before re-attempt number a (a >= 1) of node v's
// decide. A non-positive backoff disables sleeping (j.backoff is defaulted
// at job construction; negative means "no backoff", for tests).
func (j *job) backoffSleep(v, a int) {
	if j.backoff <= 0 {
		return
	}
	time.Sleep(backoffDuration(j.backoff, j.opts.Seed, v, a))
}

// backoffDuration is the deterministic capped-exponential-with-jitter retry
// schedule: base doubles per attempt up to retryBackoffCap, then a
// splitmix64 draw off (seed, node, attempt) — the same stream family as the
// fault/trial seeds — picks a jitter point in [d/2, d]. Retries under a
// seeded fault plan therefore remain exactly replayable: the same seed
// yields the same sleeps, while distinct nodes retrying concurrently (a
// crash-burst fault plan) spread out instead of thundering in lockstep.
func backoffDuration(base time.Duration, seed int64, node, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt; i++ {
		d <<= 1
		if d >= retryBackoffCap {
			break
		}
	}
	if d > retryBackoffCap {
		d = retryBackoffCap
	}
	half := uint64(d / 2)
	h := mix64(mix64(uint64(seed)+golden64*uint64(node+1)) + golden64*uint64(attempt))
	return time.Duration(half + h%(half+1))
}

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
