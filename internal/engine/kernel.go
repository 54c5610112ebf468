package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// This file is the engine's one evaluation kernel. The sequential and
// sharded schedulers, EvalBatchOblivious, Incremental repairs and the decide
// stage of the two message-passing runtimes are built from the same four
// parts (the flooding runtime's round sweeps and ShardedMP's encode stage
// use the pool and counters too):
//
//   - counters: each worker tallies into its own counters and merges them
//     into Stats once, when it finishes;
//   - guarded: every decide runs under one recover boundary with a bounded
//     retry loop, whatever builds the view it decides;
//   - pool: one shared cursor hands out the indices of a work source (a node
//     range, an instance list, a dirty list, a trial index, a block of
//     flooding receivers) to up to width workers, inline on the calling
//     goroutine at width 1. ShardedMP's stages run one worker per shard
//     and claim nothing. pool.run is the only place the engine starts
//     goroutines;
//   - commit and stop: workers record verdicts and latch the first No in the
//     job, and job.outcome derives acceptance and Stats.EarlyExit from it.
//
// EvalTrials runs on the pool too, but commits whole trials in trial order
// and keeps a per-trial recover: a trial that panics stops the sweep rather
// than being retried.

// counters are one worker's tallies. The worker owns them outright and
// merges them into the job's Stats once, through job.merge.
type counters struct {
	evaluated, hits, inserted, crashes, retries int
	// Message-passing runtimes only.
	messages, units, incomplete, ghosts, haloBytes int
	dropped, duplicated, delayed, retransmits      int
	roundBytes, roundGhosts                        []int
}

// merge folds one worker's counters into the job's Stats.
func (j *job) merge(c *counters) {
	j.mu.Lock()
	s := &j.stats
	s.Evaluated += c.evaluated
	s.DedupHits += c.hits
	j.inserted += c.inserted
	s.Crashes += c.crashes
	s.Retries += c.retries
	s.Messages += c.messages
	s.KnowledgeUnits += c.units
	s.IncompleteViews += c.incomplete
	s.Dropped += c.dropped
	s.Duplicated += c.duplicated
	s.Delayed += c.delayed
	s.Retransmits += c.retransmits
	s.GhostNodes += c.ghosts
	s.HaloBytes += c.haloBytes
	for r, b := range c.roundBytes {
		s.RoundHaloBytes[r] += b
	}
	for r, g := range c.roundGhosts {
		s.RoundGhostNodes[r] += g
	}
	j.mu.Unlock()
}

// guarded decides node v through body, retrying up to j.maxAttempts times
// when an attempt panics (an injected crash from Options.Faults or a genuine
// panic). ok reports whether a verdict was produced; on false the node has
// been recorded in j.errs and the returned No is not a decision. Every
// decide site runs through it: functional extraction, gathered flooding
// knowledge, halo sub-hosts and the full-host fallback alike.
func (j *job) guarded(c *counters, v int, body func(v int) Verdict) (Verdict, bool) {
	var cause error
	for a := 0; a < j.maxAttempts; a++ {
		if a > 0 {
			c.retries++
		}
		verdict, err := j.attempt(v, a, body)
		if err == nil {
			return verdict, true
		}
		c.crashes++
		cause = err
	}
	j.recordErr(VerdictError{Node: v, Attempts: j.maxAttempts, Cause: cause})
	return No, false
}

// attempt is guarded's recover boundary. The body builds the view inside
// the guard too: a decider receiving a view is not the only thing that can
// panic on a corrupted instance.
func (j *job) attempt(v, attempt int, body func(v int) Verdict) (verdict Verdict, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	if j.faults != nil && j.faults.CrashDecide(v, attempt) {
		panic("injected worker crash")
	}
	return body(v), nil
}

// pool hands the indices [0, n) of a work source to up to width workers
// through one shared cursor. Width 1 runs the worker inline on the calling
// goroutine and claims with a plain increment.
type pool struct {
	n, width int
	next     atomic.Int64 // the cursor at width > 1
	seq      int          // the cursor at width 1
}

// reset readies the pool for a new source of n items on width workers.
func (p *pool) reset(n, width int) {
	p.n, p.width, p.seq = n, width, 0
	p.next.Store(0)
}

// claim hands out the next index; false once the source is exhausted.
func (p *pool) claim() (int, bool) {
	if p.width > 1 {
		i := int(p.next.Add(1)) - 1
		return i, i < p.n
	}
	i := p.seq
	p.seq++
	return i, i < p.n
}

// run calls work once per worker, w in [0, width), and returns when every
// worker has.
func (p *pool) run(work func(w int)) {
	if p.width <= 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(p.width)
	for w := 0; w < p.width; w++ {
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
}

// poolWidth is the worker count for a source of the given size: the cap,
// GOMAXPROCS when the cap is not positive, and never more than one worker
// per item.
func poolWidth(limit, items int) int {
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	return min(limit, items)
}

// nodeWorker is one functional worker: a batched extractor bound to the
// job's host and the worker's counters.
type nodeWorker struct {
	j *job
	x *graph.ViewExtractor
	c counters
}

// decide is the functional decide body: extract v's view, then decide it
// through the job's cache.
func (w *nodeWorker) decide(v int) Verdict {
	return w.j.cachedVerdict(&w.c, w.x.At(v, w.j.dec.Horizon), v)
}

// evalNodes decides the nodes p hands out through x until the source runs
// dry or the job stops: the worker body of the sequential and sharded
// schedulers and of each instance of a batch.
func (j *job) evalNodes(p *pool, x *graph.ViewExtractor) {
	w := nodeWorker{j: j, x: x}
	decide := w.decide
	for v, more := p.claim(); more && !j.stop(); v, more = p.claim() {
		verdict, ok := j.guarded(&w.c, v, decide)
		j.commit(v, verdict, ok)
	}
	j.merge(&w.c)
}

// commit records node v's guarded verdict. A failed node (recorded in
// j.errs) is neither an accept nor a reject, so it never trips early exit.
// The reject latch is read before it is written: workers read the job's
// fields on every node, and a store per No would bounce its cache line
// between them.
func (j *job) commit(v int, verdict Verdict, ok bool) {
	if !ok {
		return
	}
	if j.verdicts != nil {
		j.verdicts[v] = verdict
	}
	if verdict == No && !j.rejected.Load() {
		j.rejected.Store(true)
	}
}

// stop reports whether a worker should decide no further nodes: an
// early-exit evaluation has seen a No, so no further decide can change its
// outcome, or the evaluation's context is done.
func (j *job) stop() bool {
	return j.opts.EarlyExit && j.rejected.Load() || j.checkCanceled()
}
