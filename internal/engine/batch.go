package engine

import "repro/internal/graph"

// EvalBatchOblivious evaluates one decider on a slice of identifier-free
// labelled graphs through a single scheduler launch. Per-outcome verdicts
// and acceptance are exactly those of calling EvalOblivious on each graph
// with the same options (the batch parity suite pins this per scheduler);
// what the batch amortises is everything around the verdicts:
//
//   - one worker pool for the whole slice instead of a spawn/join per
//     instance, with instances handed out by an atomic counter;
//   - one batched ViewExtractor (and its canonical-code workspace) per
//     worker, Reset between instances instead of reallocated — back-to-back
//     instances run in warm buffers;
//   - one dedup cache handle for the whole batch: when Options.Dedup is set
//     without an explicit cache, the private cache is shared across the
//     slice, so a view shape repeating across instances (the G(M,r) and
//     E8/E13 sweep regimes, where thousands of small instances share a few
//     hundred local shapes) is decided once, not once per instance.
//
// Work is parallelised across instances, one worker per instance at a time —
// the geometry of the many-small-instances sweeps this API exists for. A
// batch of one delegates to the scheduler's normal per-instance run (which
// parallelises across nodes), and the MessagePassing backend always runs
// per-instance: it assembles views operationally and has no batched form.
func EvalBatchOblivious(dec Decider, batch []*graph.Labeled, opts Options) []Outcome {
	outcomes := make([]Outcome, len(batch))
	if len(batch) == 0 {
		return outcomes
	}
	// One cache handle for the whole batch, handed to every job as its
	// Options.Cache, so a Dedup batch without an explicit cache shares one
	// private cache instead of creating one per instance. Stats.CacheShared
	// still reports whether the caller supplied the cache.
	cache, shared := newCache(dec, opts)
	jobOpts := opts
	jobOpts.Cache = cache
	jobs := make([]*job, len(batch))
	for i, l := range batch {
		j, err := newJob(dec, l, nil, jobOpts)
		if err != nil {
			// Validation errors are a property of (decider, options): they
			// fail every instance of the batch identically.
			for k := range outcomes {
				outcomes[k] = Outcome{Accepted: false, Err: err}
			}
			return outcomes
		}
		j.shared = shared
		jobs[i] = j
	}

	width := 1
	switch s := jobs[0].opts.Scheduler.(type) {
	case seqScheduler:
	case shardedScheduler:
		width = poolWidth(s.workers, len(batch))
	default:
		// MessagePassing (or an unknown backend): no batched form; run each
		// instance through the scheduler's own per-instance path.
		for i, j := range jobs {
			outcomes[i] = j.run()
		}
		return outcomes
	}
	if len(batch) == 1 {
		outcomes[0] = jobs[0].run()
		return outcomes
	}

	p := &pool{n: len(jobs), width: width}
	p.run(func(int) {
		var x *graph.ViewExtractor
		for i, more := p.claim(); more; i, more = p.claim() {
			// An empty instance is surfaced as ErrEmptyInstance by outcome,
			// never an accept.
			if j := jobs[i]; j.n > 0 {
				if x == nil {
					x = j.extractor()
				} else {
					x.Reset(j.l) // reuses every buffer
				}
				j.stats.Workers = 1
				j.evalNodes(&pool{n: j.n, width: 1}, x)
			}
			// Each outcome is taken as its instance finishes, so its
			// CacheSize is the shared cache's size at that point.
			outcomes[i] = jobs[i].outcome()
		}
	})
	return outcomes
}
