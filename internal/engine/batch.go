package engine

import "repro/internal/graph"

// EvalBatch evaluates one decider on a slice of identifier-carrying
// instances through a single scheduler launch. Per-outcome verdicts and
// acceptance are exactly those of calling Eval on each instance with the
// same options (the batch parity suite pins this per scheduler); what the
// batch amortises is everything around the verdicts:
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
func EvalBatch(dec Decider, batch []*graph.Instance, opts Options) []Outcome {
	items := make([]batchItem, len(batch))
	for i, in := range batch {
		items[i] = batchItem{l: in.Labeled, in: in}
	}
	return evalBatch(dec, items, opts)
}

// EvalBatchOblivious is EvalBatch for identifier-free evaluation — the
// batched equivalent of EvalOblivious, and the variant on which the shared
// dedup cache actually engages (identifiers disable dedup instance-wise,
// exactly as in Eval).
func EvalBatchOblivious(dec Decider, batch []*graph.Labeled, opts Options) []Outcome {
	items := make([]batchItem, len(batch))
	for i, l := range batch {
		items[i] = batchItem{l: l}
	}
	return evalBatch(dec, items, opts)
}

// batchItem is one instance of a batch: a labelled graph plus its optional
// identifier assignment.
type batchItem struct {
	l  *graph.Labeled
	in *graph.Instance
}

func evalBatch(dec Decider, items []batchItem, opts Options) []Outcome {
	outcomes := make([]Outcome, len(items))
	if len(items) == 0 {
		return outcomes
	}
	// One cache handle for the whole batch, handed to every job as its
	// Options.Cache, so a Dedup batch without an explicit cache shares one
	// private cache instead of creating one per instance. Soundness is still
	// gated per-instance by newJob (identifier-carrying instances keep dedup
	// off), and Stats.CacheShared still reports whether the caller supplied
	// the cache.
	cache, shared := newCache(dec, opts)
	jobOpts := opts
	jobOpts.Cache = cache
	jobs := make([]*job, len(items))
	for i, it := range items {
		j, err := newJob(dec, it.l, it.in, jobOpts)
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
		width = poolWidth(s.workers, len(items))
	default:
		// MessagePassing (or an unknown backend): no batched form; run each
		// instance through the scheduler's own per-instance path.
		for i, j := range jobs {
			outcomes[i] = j.run()
		}
		return outcomes
	}
	if len(items) == 1 {
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
					j.rebind(x)
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

// rebind points an existing per-worker extractor at this job's host,
// reusing every scratch buffer (see graph.ViewExtractor.Reset).
func (j *job) rebind(x *graph.ViewExtractor) {
	if j.in != nil {
		x.ResetInstance(j.in)
	} else {
		x.Reset(j.l)
	}
}
