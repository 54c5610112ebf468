package engine

import "repro/internal/graph"

// Scheduler is an evaluation backend. All schedulers produce identical
// per-node verdicts for contract-abiding deciders; they differ in cost model
// and fidelity (the message-passing backend actually runs the synchronous
// protocol). The interface is closed over this package: backends share the
// job's internal buffers.
type Scheduler interface {
	// Name identifies the backend in stats and reports.
	Name() string
	// run evaluates the job, filling j.verdicts (when present), j.stats and
	// the reject latch that job.outcome derives acceptance from.
	run(j *job)
}

// Sequential evaluates nodes in index order on the calling goroutine.
var Sequential Scheduler = seqScheduler{}

// Sharded evaluates nodes on a worker pool with one batched extractor per
// worker, capped at min(GOMAXPROCS, n) workers; small instances run inline
// so no idle goroutines are ever spawned.
var Sharded Scheduler = shardedScheduler{}

// MessagePassing evaluates by actually running the synchronous flooding
// protocol, its t rounds as t sweeps over receivers on the kernel's pool —
// the operational definition of a local algorithm, kept as a backend so its
// equivalence with the functional backends stays continuously tested.
var MessagePassing Scheduler = mpScheduler{}

// ShardedWith returns a Sharded scheduler with an explicit worker cap
// (still additionally capped at n).
func ShardedWith(workers int) Scheduler {
	if workers < 1 {
		panic("engine: worker count must be positive")
	}
	return shardedScheduler{workers: workers}
}

// shardedMinNodes is the instance size below which the sharded scheduler
// runs inline: dispatching a handful of views to a pool costs more than
// deciding them.
const shardedMinNodes = 64

// dedupMaxViewNodes bounds the views the deduplication cache considers.
// The canonical code is the cache key, and its individualisation-refinement
// search can explode on large symmetric views (the Section 3 pivot
// neighbourhoods are the canonical offender); large views also repeat far
// less often than the small structured ones dedup exists for. Oversized
// views are decided directly.
const dedupMaxViewNodes = 64

// cachedVerdict looks up / fills the dedup cache around a decide call. The
// cache handles its own striped locking, so every worker shares this path;
// counters are the worker's own.
func (j *job) cachedVerdict(c *counters, view *graph.View, v int) Verdict {
	if j.cache == nil || view.N() > dedupMaxViewNodes {
		c.evaluated++
		return j.decideView(view, v)
	}
	// First level: the raw-structure key — one linear pass over the view's
	// flat CSR arena. Structured instances repeat neighbourhoods
	// byte-for-byte (extraction order is a function of structure), so the
	// common case never pays for a canonical code.
	raw := view.RawCode()
	if verdict, ok := j.cache.lookupRaw(j.dec.Name, j.dec.Horizon, raw); ok {
		c.hits++
		return verdict
	}
	// Second level: the canonical code, catching views that repeat only up
	// to isomorphism. The raw bytes live in their own workspace buffer, so
	// they survive the canonical computation below and can seed the raw
	// layer afterwards.
	code := view.CanonCode()
	verdict, computed, stored := j.cache.lookupOrCompute(j.dec.Name, j.dec.Horizon, code,
		func() Verdict { return j.decideView(view, v) })
	if computed {
		c.evaluated++
	} else {
		c.hits++
	}
	if stored {
		c.inserted++
	}
	j.cache.storeRaw(j.dec.Name, j.dec.Horizon, raw, verdict)
	return verdict
}

type seqScheduler struct{}

func (seqScheduler) Name() string { return "sequential" }

func (seqScheduler) run(j *job) { j.evalRange(1) }

type shardedScheduler struct {
	// workers caps the pool; 0 means GOMAXPROCS.
	workers int
}

func (shardedScheduler) Name() string { return "sharded" }

func (s shardedScheduler) run(j *job) { j.evalRange(s.width(j.n)) }

// width is the pool width for a node range of the given size: inline below
// shardedMinNodes, the capped pool otherwise.
func (s shardedScheduler) width(nodes int) int {
	if nodes < shardedMinNodes {
		return 1
	}
	return poolWidth(s.workers, nodes)
}

// evalRange decides the job's whole node range on a pool of the given
// width, one extractor per worker.
func (j *job) evalRange(width int) {
	j.stats.Workers = width
	p := &pool{n: j.n, width: width}
	p.run(func(int) { j.evalNodes(p, j.extractor()) })
}
