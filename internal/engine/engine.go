// Package engine is the single evaluation pipeline behind every decision
// runner in the repository. All of the paper's results — the LD vs LD*
// separations, NLD certificate checking, BPLD sampling — reduce to one
// operation: evaluate a local verdict on the radius-t view of every node of
// an instance and aggregate by unanimity. The engine implements that
// operation once, well:
//
//   - batched view extraction through graph.ViewExtractor, reusing per-worker
//     frontier and subgraph scratch buffers instead of allocating per node;
//   - optional canonical-view deduplication: structurally identical views
//     (ubiquitous on cycles, layered trees T_r and the pyramid instances) are
//     decided once and the verdict shared;
//   - early-exit aggregation: LOCAL acceptance is all-accept, so in
//     accept-only evaluations the first reject cancels all outstanding work;
//   - pluggable schedulers — Sequential, Sharded (worker pool),
//     MessagePassing (the fidelity-preserving flooding runtime, its rounds
//     run as sweeps over receivers) and ShardedMP (partitioned shards
//     exchanging halo rings) — all guaranteed to produce identical per-node
//     verdicts, which the parity suite enforces.
//
// Every evaluation path — the schedulers, EvalBatchOblivious, Incremental
// and EvalTrials — is built on one evaluation kernel (kernel.go): per-worker
// counters merged once, one guarded decide, one worker pool, and one commit
// path from which acceptance is derived. The higher layers (internal/local,
// internal/decide, internal/experiments, cmd/localsim) are thin adapters
// over Eval and EvalOblivious.
package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Verdict is a node's local output in a decision task.
type Verdict bool

// Local outputs. A property holds globally iff every node says Yes; it fails
// iff at least one node says No.
const (
	Yes Verdict = true
	No  Verdict = false
)

// String renders the verdict.
func (v Verdict) String() string {
	if v == Yes {
		return "yes"
	}
	return "no"
}

// Decider is the engine's uniform per-view verdict function. Exactly one of
// Decide and DecideRand must be set; DecideRand additionally receives the
// node's private coin stream (derived deterministically from Options.Seed and
// the node index, so scheduler choice never changes coins).
type Decider struct {
	// Name identifies the decider in reports.
	Name string
	// Horizon is the constant local horizon t.
	Horizon int
	// Decide maps a view to a verdict. Deciders must be deterministic
	// functions of the view (up to isomorphism of the view's internal
	// numbering, per the LOCAL model).
	Decide func(view *graph.View) Verdict
	// DecideRand is the randomized variant; when set it takes precedence
	// over Decide and disables view deduplication (coins differ per node).
	DecideRand func(view *graph.View, rng *rand.Rand) Verdict
}

// MessageFate is an Injector's ruling on one directed message of the
// MessagePassing backend: whether the message (eventually) arrives, how many
// sends it took, how many extra copies are delivered, and how many rounds
// late it lands. The zero value means "lost on the first send".
type MessageFate struct {
	// Delivered reports that some (re)transmission got through.
	Delivered bool
	// Attempts is the number of sends consumed, the successful one included
	// (at least 1 whenever the fate was consulted).
	Attempts int
	// Duplicates is the number of extra copies delivered beyond the first.
	Duplicates int
	// Delay is the number of rounds the delivery lands late (0 = on time).
	Delay int
}

// Injector decides the fate of fault-injection sites during an evaluation.
// Implementations MUST be pure functions of their arguments (the engine may
// consult the same site more than once and relies on getting the same
// answer), which also makes every faulty run replayable from the injector's
// seed. internal/fault provides the seed-derived implementation; the engine
// only defines the contract.
type Injector interface {
	// CrashDecide reports whether the decider invocation for this node
	// should crash on the given attempt (0-based). The engine retries up to
	// Options.MaxAttempts times before recording a VerdictError.
	CrashDecide(node, attempt int) bool
	// MessageFate rules on the round-r message from one node to a
	// neighbour in the MessagePassing backend.
	MessageFate(round, from, to int) MessageFate
}

// VerdictError records a node whose verdict could not be computed: every
// attempt crashed (injected or genuine panic). Errored nodes never count as
// accepts — an Outcome carrying errors reports Accepted == false.
type VerdictError struct {
	// Node is the node whose evaluation failed.
	Node int
	// Attempts is the number of attempts made before giving up.
	Attempts int
	// Cause is the recovered panic of the final attempt.
	Cause error
}

// Error implements the error interface.
func (e VerdictError) Error() string {
	return fmt.Sprintf("engine: node %d failed after %d attempt(s): %v", e.Node, e.Attempts, e.Cause)
}

// Unwrap exposes the recovered cause.
func (e VerdictError) Unwrap() error { return e.Cause }

// ErrEmptyInstance is returned when an evaluation is asked to decide an
// instance with no nodes. Unanimity over zero nodes is vacuous, and the
// seed-era engine reported such instances as accepted — indistinguishable
// from a genuine accept in early-exit aggregation. The engine now surfaces
// the condition instead of guessing.
var ErrEmptyInstance = errors.New("engine: empty instance (no nodes to decide)")

// Outcome is the result of evaluating a decider on an instance.
type Outcome struct {
	// Verdicts holds the per-node verdicts, indexed by node. It is nil when
	// the evaluation ran with Options.EarlyExit: early exit trades per-node
	// output for the right to stop at the first reject.
	Verdicts []Verdict
	// Accepted is true iff every node output Yes. It is always false when
	// Err is non-nil: an instance with failed nodes is never reported
	// accepted (and never silently rejected either — Err says why).
	Accepted bool
	// Errs lists the nodes whose evaluation failed after all retry
	// attempts, sorted by node index. Empty on healthy runs.
	Errs []VerdictError
	// Err summarises why the outcome is unreliable: a validation error
	// (malformed Decider or Options), ErrEmptyInstance, or the first
	// VerdictError when nodes failed. Nil on healthy runs.
	Err error
	// Stats reports how the engine got there.
	Stats Stats
}

// Stats is the engine's cost accounting for one evaluation.
type Stats struct {
	// Scheduler is the backend that ran the evaluation.
	Scheduler string
	// Nodes is the instance size.
	Nodes int
	// Evaluated counts decider invocations; with deduplication or early
	// exit it can be far below Nodes.
	Evaluated int
	// DedupHits counts verdicts served from the canonical-view cache.
	DedupHits int
	// DistinctViews is the number of distinct canonical view codes this
	// evaluation decided and inserted into the cache (0 when deduplication
	// is off). With a private per-evaluation cache this equals the number of
	// distinct codes seen; with a shared Options.Cache, views already decided
	// by earlier evaluations count as DedupHits instead.
	DistinctViews int
	// CacheSize is the verdict cache's total entry count after the
	// evaluation — across every decider and prior evaluation sharing it when
	// Options.Cache is set.
	CacheSize int
	// CacheShared reports that the evaluation ran against a caller-provided
	// cross-run cache rather than a private one.
	CacheShared bool
	// Workers is the number of concurrent workers used: the pool width of
	// the Sharded scheduler, and under MessagePassing the kernel pool's
	// width (GOMAXPROCS capped at Nodes), which runs both the round sweeps
	// and the decide stage; the shard count under ShardedMP.
	Workers int
	// EarlyExit reports whether evaluation stopped before covering all
	// nodes.
	EarlyExit bool
	// Messages and KnowledgeUnits are the message-passing runtimes'
	// traffic, every delivered copy counted. Under MessagePassing they are
	// the flooding protocol's point-to-point messages and the node
	// addresses those carry; under ShardedMP, the halo ring copies sent and
	// the ghost records those carry.
	//
	// Both message-passing runtimes fill Messages, KnowledgeUnits, Rounds
	// and the message-fault counters (Dropped through IncompleteViews). A
	// MessagePassing run that a done Options.Ctx stopped between rounds
	// reports the counts of the rounds it ran.
	Messages       int
	KnowledgeUnits int
	// Rounds is the number of synchronous rounds run: the horizon, unless
	// the context stopped a MessagePassing run early.
	Rounds int
	// Crashes counts decider invocations that crashed (injected or genuine
	// panics, recovered by the engine); Retries counts the re-attempts those
	// crashes triggered. A node whose every attempt crashed additionally
	// appears in Outcome.Errs.
	Crashes int
	// Retries counts crash re-attempts (see Crashes).
	Retries int
	// Dropped, Duplicated, Delayed and Retransmits count injected message
	// faults: messages lost after the retransmit budget, extra copies
	// delivered, deliveries landing late, and retransmissions consumed.
	// MessagePassing rules on every (round, directed edge) message,
	// ShardedMP on every halo ring of a shard-pair link (duplicates of the
	// rings it sends only).
	Dropped     int
	Duplicated  int
	Delayed     int
	Retransmits int
	// IncompleteViews counts nodes whose gather was incomplete and that
	// therefore fall back to extractor-based view evaluation — degraded but
	// never wrong. Under MessagePassing these are the nodes with a dropped
	// or delayed message anywhere in their dependency cone; under ShardedMP,
	// the rim nodes it decided of shards that lost a halo ring.
	IncompleteViews int
	// Shards is the shard count of the ShardedMP backend (0 for every other
	// scheduler).
	Shards int
	// GhostNodes counts the ghost (halo) node records imported across all
	// shard-pair links by the ShardedMP backend — the total boundary-ball
	// volume the partition forced onto the wire.
	GhostNodes int
	// HaloBytes is the total encoded size of the boundary-view messages the
	// ShardedMP backend sent (every transmitted copy counted), the
	// shard-boundary communication cost of the run.
	HaloBytes int
	// RoundHaloBytes and RoundGhostNodes break HaloBytes and GhostNodes down
	// per exchange round (index r holds round r's tally); nil outside the
	// ShardedMP backend.
	RoundHaloBytes  []int
	RoundGhostNodes []int
}

// Options tune one evaluation.
type Options struct {
	// Scheduler selects the backend; nil means Sequential.
	Scheduler Scheduler
	// Dedup enables canonical-view deduplication. It applies only to
	// deterministic deciders on identifier-free evaluations (identifiers
	// make views per-node unique, coins make verdicts per-node unique);
	// the engine silently skips it otherwise. Views larger than an internal
	// threshold are also decided directly — canonical codes of large
	// symmetric views (the Section 3 pivot neighbourhoods) are far more
	// expensive than the verdicts they would save. The MessagePassing
	// backend never deduplicates: it assembles every node's view
	// operationally by design.
	//
	// Sharing a verdict across isomorphic views assumes the decider is a
	// function of the view's isomorphism class (the LOCAL model's contract;
	// see Decider.Decide). Verification harnesses probing possibly
	// ill-behaved deciders should leave dedup off.
	Dedup bool
	// Cache, when set, is a shared cross-evaluation verdict cache: views
	// already decided by an earlier evaluation (of this decider, keyed by
	// name and horizon) are served without re-deciding. Setting Cache
	// implies Dedup; the same soundness conditions apply, plus the naming
	// condition documented on ViewCache. When nil and Dedup is set, the
	// engine uses a private NewViewCache for the one evaluation.
	Cache *ViewCache
	// Ctx, when set, bounds the evaluation: every scheduler (and a batch)
	// polls it before each node's decide and stops deciding once it is done,
	// returning Outcome{Accepted: false, Err: wrapping ctx.Err()}. This is
	// how a serving layer propagates per-request deadlines into the engine.
	// The message-passing backends also check it at launch. MessagePassing
	// checks it before every round too and stops the protocol between
	// rounds, without deciding; ShardedMP's halo exchange, once started,
	// runs to the end. Nil means no deadline.
	Ctx context.Context
	// EarlyExit lets the engine stop at the first No verdict. The Outcome
	// then carries no per-node verdicts.
	EarlyExit bool
	// Seed drives the per-node coin streams of randomized deciders.
	Seed int64
	// Faults, when set, injects deterministic faults into the evaluation:
	// decider crashes on every scheduler, message drop/duplicate/delay on
	// the MessagePassing backend. See Injector. Nil means a perfect world
	// (the hooks stay compiled in but cost one nil check).
	Faults Injector
	// MaxAttempts bounds the per-node decide attempts when an attempt
	// crashes (injected via Faults or a genuine decider panic). 0 means 3;
	// negative is a validation error. After the last attempt the node is
	// recorded as a VerdictError instead of killing the sweep.
	MaxAttempts int
}

// Eval evaluates a decider on every node of an identifier-carrying instance.
// A malformed decider or options yields Outcome{Accepted: false, Err: ...}
// instead of a panic — library callers degrade gracefully.
func Eval(dec Decider, in *graph.Instance, opts Options) Outcome {
	j, err := newJob(dec, in.Labeled, in, opts)
	if err != nil {
		return Outcome{Accepted: false, Err: err}
	}
	return j.run()
}

// EvalOblivious evaluates a decider on every node of a labelled graph with no
// identifiers anywhere — the Id-oblivious regime. Validation failures are
// returned in Outcome.Err, as in Eval.
func EvalOblivious(dec Decider, l *graph.Labeled, opts Options) Outcome {
	j, err := newJob(dec, l, nil, opts)
	if err != nil {
		return Outcome{Accepted: false, Err: err}
	}
	return j.run()
}

// job is one evaluation in flight: the resolved inputs plus the output
// buffers the scheduler fills.
type job struct {
	dec  Decider
	l    *graph.Labeled
	in   *graph.Instance // nil for oblivious evaluation
	opts Options         // Scheduler resolved: never nil

	n        int
	cache    *ViewCache // nil when dedup is off or unsound for this input
	shared   bool       // cache came from Options.Cache (cross-run)
	verdicts []Verdict

	faults      Injector
	maxAttempts int

	cancelPoll
	// rejected latches the first committed No.
	rejected atomic.Bool

	// mu guards what workers merge into: stats, inserted and errs.
	mu       sync.Mutex
	stats    Stats
	inserted int // canonical entries this job added to the cache
	errs     []VerdictError
}

func newJob(dec Decider, l *graph.Labeled, in *graph.Instance, opts Options) (*job, error) {
	if (dec.Decide == nil) == (dec.DecideRand == nil) {
		return nil, errors.New("engine: exactly one of Decide and DecideRand must be set")
	}
	if dec.Horizon < 0 {
		return nil, fmt.Errorf("engine: negative horizon %d", dec.Horizon)
	}
	if opts.MaxAttempts < 0 {
		return nil, fmt.Errorf("engine: negative MaxAttempts %d", opts.MaxAttempts)
	}
	if opts.Scheduler == nil {
		opts.Scheduler = Sequential
	}
	j := &job{
		dec:         dec,
		l:           l,
		in:          in,
		opts:        opts,
		n:           l.N(),
		faults:      opts.Faults,
		maxAttempts: opts.MaxAttempts,
	}
	if j.maxAttempts == 0 {
		j.maxAttempts = defaultMaxAttempts
	}
	if in == nil {
		j.cache, j.shared = newCache(dec, opts)
	}
	if opts.Ctx != nil {
		j.done = opts.Ctx.Done()
	}
	j.stats.Scheduler = opts.Scheduler.Name()
	j.stats.Nodes = j.n
	if !opts.EarlyExit {
		j.verdicts = make([]Verdict, j.n)
	}
	return j, nil
}

// newCache resolves the verdict cache of an identifier-free evaluation:
// Options.Cache when set (shared), else a private one when Options.Dedup
// asks for it. Dedup (and hence any cache use) is sound only for
// deterministic deciders, so randomized ones get none.
func newCache(dec Decider, opts Options) (cache *ViewCache, shared bool) {
	switch {
	case dec.DecideRand != nil || !opts.Dedup && opts.Cache == nil:
		return nil, false
	case opts.Cache != nil:
		return opts.Cache, true
	}
	return NewViewCache(), false
}

// defaultMaxAttempts is the per-node attempt budget when Options leaves
// MaxAttempts zero: one initial attempt plus two retries.
const defaultMaxAttempts = 3

// run dispatches to the scheduler and assembles the outcome.
func (j *job) run() Outcome {
	if j.n > 0 {
		j.opts.Scheduler.run(j)
	}
	return j.outcome()
}

// outcome assembles the final Outcome after a scheduler run. Acceptance is
// the absence of a committed No; node-level failures (recorded by the
// guarded decide path) force it to false and surface as a sorted error list
// plus a summary Err — a sweep with failed nodes is neither an accept nor a
// clean reject. A context cancellation observed mid-run likewise yields
// neither: the outcome reports the cancellation so a serving layer can
// answer "deadline exceeded" instead of a fabricated verdict.
func (j *job) outcome() Outcome {
	if j.n == 0 {
		return Outcome{Verdicts: j.verdicts, Accepted: false, Err: ErrEmptyInstance, Stats: j.stats}
	}
	accepted := !j.rejected.Load()
	j.stats.EarlyExit = j.opts.EarlyExit && !accepted
	j.cacheStats(&j.stats)
	out := Outcome{Verdicts: j.verdicts, Accepted: accepted, Stats: j.stats}
	if len(j.errs) > 0 {
		sortVerdictErrors(j.errs)
		out.Errs = j.errs
		out.Accepted = false
		out.Err = failedErr(j.errs, j.maxAttempts)
	}
	if j.canceled.Load() {
		out.Accepted = false
		out.Err = fmt.Errorf("engine: evaluation canceled: %w", j.opts.Ctx.Err())
	}
	return out
}

// failedErr summarises node failures, sorted by node, as an Outcome.Err.
func failedErr(errs []VerdictError, attempts int) error {
	return fmt.Errorf("engine: %d node(s) failed all %d attempt(s); first: %w", len(errs), attempts, errs[0])
}

// cacheStats fills the cache-side fields of s.
func (j *job) cacheStats(s *Stats) {
	if j.cache != nil {
		s.DistinctViews, s.CacheSize, s.CacheShared = j.inserted, j.cache.Len(), j.shared
	}
}

// cancelPoll polls a context between work items: one nil check without a
// context, a latched non-blocking receive otherwise. Once done fires, every
// worker sees true and winds down.
type cancelPoll struct {
	done     <-chan struct{} // the context's done channel; nil without one
	canceled atomic.Bool
}

func (c *cancelPoll) checkCanceled() bool {
	if c.done == nil {
		return false
	}
	if c.canceled.Load() {
		return true
	}
	select {
	case <-c.done:
		c.canceled.Store(true)
		return true
	default:
		return false
	}
}

// extractor builds the per-worker batched view extractor for this job.
func (j *job) extractor() *graph.ViewExtractor {
	if j.in != nil {
		return graph.NewInstanceViewExtractor(j.in)
	}
	return graph.NewViewExtractor(j.l)
}

// decideView invokes the decider on one view, deriving the node's coin
// stream when the decider is randomized. Streams are splitmix64-derived from
// (Options.Seed, node) — see streamSeed — so scheduler choice never changes
// coins and the trial engine can replay any single trial (TrialSeed). The
// historical derivation (seed XOR node times a truncated odd constant) left
// the low bit of every node's source seed identical; it is gone.
func (j *job) decideView(view *graph.View, v int) Verdict {
	if j.dec.DecideRand != nil {
		return j.dec.DecideRand(view, newCoins(streamSeed(j.opts.Seed, v)))
	}
	return j.dec.Decide(view)
}
