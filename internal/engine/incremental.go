package engine

import (
	"fmt"

	"repro/internal/graph"
)

// EdgeOp is one edge update of a dynamic stream: insert (Add) or delete
// (!Add) the undirected edge {U, V}.
type EdgeOp struct {
	// U and V are the edge's endpoints.
	U, V int
	// Add selects insertion; false selects removal.
	Add bool
}

// Incremental is a resident decision session over one labelled graph: it
// holds the per-node verdicts and the aggregate outcome continuously correct
// across a stream of edge and label updates, re-deciding only the nodes an
// update can have affected instead of the whole instance.
//
// Locality is what makes this sound. A node's verdict is a function of its
// radius-t view, so an update at {u, v} can change verdicts only inside the
// distance-t balls of u and v:
//
//   - for an edge insertion the balls are taken AFTER applying the update
//     (distances only shrink, so a node outside both new balls has no path of
//     length <= t to either endpoint — its view cannot contain the new edge);
//   - for an edge removal the balls are taken BEFORE applying it (the
//     symmetric argument: distances only grow);
//   - for a label change at v the ball around v suffices, unchanged on either
//     side.
//
// The dirty set is the union of those balls, which is the radius-t ball
// around the set of endpoints: one multi-source search
// (graph.Traversal.BallAround, 0 allocs/op). Dirty nodes are re-extracted through
// the same ViewExtractor / ViewCache / fast-path pipeline the from-scratch
// engine uses, so a warm session decides an update in O(|dirty|) cache probes
// — the differential fuzz suite pins the results bit-identical to a
// from-scratch Eval after every step.
//
// Options are honoured with three deviations, all forced by the residency:
// EarlyExit is ignored (the session must keep every per-node verdict), Ctx is
// ignored (repairs are O(ball), not instance-sized), and the MessagePassing
// scheduler repairs sequentially (its flooding protocol evaluates whole
// instances; dirty subsets go through the functional pipeline).
// Options.Cache and Options.Faults work exactly as in Eval: a shared cache
// warms the session across restarts (cmd/decided attaches its verdict store
// to one through the cache's load hook), and injected decider crashes
// surface as per-node errors that heal on the next touching update.
//
// The session owns its instance: after NewIncremental, every mutation of the
// graph must go through ApplyEdge and every label change
// through ApplyLabel (or InvalidateLabels when labels were rewritten in
// place). Mutating the host directly desynchronises the verdict table; the
// session panics on the next update if the graph's generation moved without
// it. An Incremental is not safe for concurrent use.
type Incremental struct {
	dec Decider
	l   *graph.Labeled
	n   int

	j    *job
	trav *graph.Traversal
	xs   []*graph.ViewExtractor

	// The repair pool and its worker body, bound once per session: a closure
	// built per repair would escape through the pool's go statement and cost
	// the steady state an allocation per update.
	pool       pool
	repairWork func(w int)

	// Resident state: one verdict per node plus the aggregate counters that
	// make Accepted O(1). failed marks nodes whose last repair crashed every
	// attempt; they hold verdict No but are counted separately (a failure is
	// neither an accept nor a reject, mirroring Outcome.Errs).
	verdicts []Verdict
	failed   []bool
	rejects  int
	nfailed  int
	errs     map[int]VerdictError

	// dirty is the last update's dirty set: trav's ball scratch, or every
	// node after the initial evaluation.
	dirty []int

	// Repair result buffers, committed single-threaded after the sweep.
	res []Verdict
	ok  []bool

	// gen is the graph generation the verdict table corresponds to; a
	// mismatch at the next update means the host was mutated behind the
	// session's back.
	gen uint64
}

// NewIncremental opens a session on l, runs the initial full evaluation with
// the configured scheduler pipeline, and returns the resident session.
// Validation failures and empty instances return an error, matching Eval's
// Outcome.Err conditions.
func NewIncremental(dec Decider, l *graph.Labeled, opts Options) (*Incremental, error) {
	opts.EarlyExit = false
	opts.Ctx = nil
	j, err := newJob(dec, l, nil, opts)
	if err != nil {
		return nil, err
	}
	if j.n == 0 {
		return nil, ErrEmptyInstance
	}
	inc := &Incremental{
		dec:      dec,
		l:        l,
		n:        j.n,
		j:        j,
		trav:     graph.NewTraversal(),
		verdicts: make([]Verdict, j.n),
		failed:   make([]bool, j.n),
		dirty:    make([]int, j.n),
		gen:      l.G.Generation(),
	}
	inc.repairWork = inc.repairWorker
	if _, ok := j.opts.Scheduler.(shardedScheduler); !ok {
		// Only the sharded pool repairs dirty subsets in parallel; every
		// other backend, MessagePassing included (its flooding runtime is
		// whole-instance by construction), repairs sequentially.
		j.opts.Scheduler = Sequential
	}
	j.stats.Scheduler = "incremental(" + j.opts.Scheduler.Name() + ")"
	// Convert the host to its dynamic representation now, while the O(n)
	// initial evaluation dominates anyway. Left to the lazy conversion in
	// ApplyUpdate, the first update of the session would pay a hidden O(n+m)
	// — an order-of-magnitude outlier in an otherwise O(dirty) stream.
	l.G.BeginUpdates()
	// The initial evaluation is a repair of everything: all-Yes with zero
	// rejects is the fixed point the commit deltas start from.
	for v := range inc.verdicts {
		inc.verdicts[v] = Yes
	}
	for v := range inc.dirty {
		inc.dirty[v] = v
	}
	inc.repair()
	return inc, nil
}

// MustNewIncremental is NewIncremental panicking on error.
func MustNewIncremental(dec Decider, l *graph.Labeled, opts Options) *Incremental {
	inc, err := NewIncremental(dec, l, opts)
	if err != nil {
		panic(err)
	}
	return inc
}

// ApplyEdge applies one edge update and repairs the affected balls. It
// returns the number of dirty nodes re-decided (0 when the update was a
// structural no-op: inserting a present edge or removing an absent one).
// Self-loops and out-of-range endpoints panic, matching graph.ApplyUpdate.
func (inc *Incremental) ApplyEdge(u, v int, add bool) int {
	inc.checkGen()
	inc.dirty = inc.dirty[:0]
	inc.collectOp(u, v, add)
	inc.gen = inc.l.G.Generation()
	inc.repair()
	return len(inc.dirty)
}

// ApplyLabel sets node v's label and repairs the radius-t ball around it.
// It returns the number of dirty nodes re-decided.
func (inc *Incremental) ApplyLabel(v int, lab graph.Label) int {
	inc.checkGen()
	inc.l.Labels[v] = lab
	inc.collect(v)
	inc.repair()
	return len(inc.dirty)
}

// InvalidateLabels repairs the balls around nodes whose labels were already
// rewritten in place by an external actor — the fault layer's corruption and
// heal steps mutate l.Labels directly. It returns the number of dirty nodes
// re-decided. Only label changes may be signalled this way; structural
// changes must go through ApplyEdge.
func (inc *Incremental) InvalidateLabels(nodes []int) int {
	inc.checkGen()
	inc.collect(nodes...)
	inc.repair()
	return len(inc.dirty)
}

// Accepted reports the aggregate outcome in O(1): every node currently says
// Yes and no node is in a failed state.
func (inc *Incremental) Accepted() bool {
	return inc.rejects == 0 && inc.nfailed == 0
}

// Rejects returns the number of nodes currently saying No (failed nodes are
// counted separately; see Failed).
func (inc *Incremental) Rejects() int { return inc.rejects }

// Failed returns the number of nodes whose last repair failed every decide
// attempt.
func (inc *Incremental) Failed() int { return inc.nfailed }

// Verdict returns node v's current verdict.
func (inc *Incremental) Verdict(v int) Verdict {
	if v < 0 || v >= inc.n {
		panic(fmt.Sprintf("engine: node %d out of range [0,%d)", v, inc.n))
	}
	return inc.verdicts[v]
}

// Verdicts returns the resident per-node verdict table. The slice is owned
// by the session and must not be modified; it is updated in place by
// subsequent Apply calls.
func (inc *Incremental) Verdicts() []Verdict { return inc.verdicts }

// LastDirty returns the dirty set of the most recent update: the nodes whose
// balls the update touched and that were therefore re-decided. The slice is
// session-owned scratch, valid until the next Apply call.
func (inc *Incremental) LastDirty() []int { return inc.dirty }

// Stats returns the session's cumulative cost accounting: decider
// invocations, cache hits and crash/retry counts summed over the initial
// evaluation and every repair since.
func (inc *Incremental) Stats() Stats {
	stats := inc.j.stats
	inc.j.cacheStats(&stats)
	return stats
}

// Outcome assembles a from-scratch-shaped Outcome from the resident state:
// per-node verdicts (copied), aggregate acceptance, and the current per-node
// failures sorted by node — field-compatible with Eval's Outcome so
// differential harnesses compare them directly.
func (inc *Incremental) Outcome() Outcome {
	out := Outcome{
		Verdicts: append([]Verdict(nil), inc.verdicts...),
		Accepted: inc.Accepted(),
		Stats:    inc.Stats(),
	}
	if len(inc.errs) > 0 {
		out.Errs = make([]VerdictError, 0, len(inc.errs))
		for _, e := range inc.errs {
			out.Errs = append(out.Errs, e)
		}
		sortVerdictErrors(out.Errs)
		out.Err = failedErr(out.Errs, inc.j.maxAttempts)
	}
	return out
}

// checkGen panics when the host graph was mutated outside the session —
// the verdict table would silently desynchronise otherwise.
func (inc *Incremental) checkGen() {
	if g := inc.l.G.Generation(); g != inc.gen {
		panic(fmt.Sprintf("engine: incremental session's graph mutated externally (generation %d, session at %d); all mutations must go through ApplyEdge/ApplyLabel", g, inc.gen))
	}
}

// collectOp applies one edge update to the host and collects its dirty
// balls at the side of the update where they are sound: after an insertion,
// before a removal.
func (inc *Incremental) collectOp(u, v int, add bool) {
	g := inc.l.G
	if add {
		if g.ApplyUpdate(u, v, true) {
			inc.collect(u, v)
		}
		return
	}
	if !g.HasEdge(u, v) {
		// Check first: collecting balls for a structural no-op would
		// re-decide nodes no update affected.
		return
	}
	inc.collect(u, v)
	g.ApplyUpdate(u, v, false)
}

// collect makes the radius-t ball around the centres the dirty set.
func (inc *Incremental) collect(centres ...int) {
	inc.dirty = inc.trav.BallAround(inc.l.G, centres, inc.dec.Horizon)
}

// repair re-decides every node in the dirty set against the current
// graph through the guarded decide (extraction, cache, retry) on the repair
// pool, then commits the verdict deltas into the resident table
// single-threaded.
func (inc *Incremental) repair() {
	k := len(inc.dirty)
	if k == 0 {
		return
	}
	if cap(inc.res) < k {
		inc.res = make([]Verdict, k)
		inc.ok = make([]bool, k)
	}
	inc.res, inc.ok = inc.res[:k], inc.ok[:k]
	width := 1
	if s, ok := inc.j.opts.Scheduler.(shardedScheduler); ok {
		width = s.width(k)
	}
	// Stats.Workers reports the session's high-water pool size: repairs pick
	// their own width per dirty set.
	inc.j.stats.Workers = max(inc.j.stats.Workers, width)
	for w := 0; w < width; w++ {
		inc.extractor(w) // bind before launch; extractor() is not goroutine-safe
	}
	inc.pool.reset(k, width)
	inc.pool.run(inc.repairWork)
	for i, v := range inc.dirty {
		inc.commit(v, inc.res[i], inc.ok[i])
	}
	inc.drainErrs()
}

// repairWorker is worker w's share of a repair: it decides the dirty nodes
// the pool hands it into the result buffers.
func (inc *Incremental) repairWorker(w int) {
	j := inc.j
	nw := nodeWorker{j: j, x: inc.xs[w]}
	decide := nw.decide
	for i, more := inc.pool.claim(); more; i, more = inc.pool.claim() {
		inc.res[i], inc.ok[i] = j.guarded(&nw.c, inc.dirty[i], decide)
	}
	j.merge(&nw.c)
}

// commit replaces node v's resident verdict, maintaining the aggregate
// counters by delta.
func (inc *Incremental) commit(v int, verdict Verdict, ok bool) {
	if inc.failed[v] {
		inc.failed[v] = false
		inc.nfailed--
	} else if inc.verdicts[v] == No {
		inc.rejects--
	}
	if !ok {
		// All attempts crashed: neither an accept nor a reject. The verdict
		// slot holds No to match what a from-scratch sweep leaves there.
		inc.verdicts[v] = No
		inc.failed[v] = true
		inc.nfailed++
		return
	}
	inc.verdicts[v] = verdict
	if verdict == No {
		inc.rejects++
	}
	if _, was := inc.errs[v]; was {
		delete(inc.errs, v)
	}
}

// drainErrs moves the sweep's recorded failures into the per-node error map
// (the resident analogue of Outcome.Errs).
func (inc *Incremental) drainErrs() {
	if len(inc.j.errs) == 0 {
		return
	}
	if inc.errs == nil {
		inc.errs = make(map[int]VerdictError, len(inc.j.errs))
	}
	for _, e := range inc.j.errs {
		inc.errs[e.Node] = e
	}
	inc.j.errs = inc.j.errs[:0]
}

// extractor returns worker w's extractor, rebound to the host's current
// generation (Reset is O(1): the scratch arrays persist).
func (inc *Incremental) extractor(w int) *graph.ViewExtractor {
	for len(inc.xs) <= w {
		inc.xs = append(inc.xs, graph.NewViewExtractor(inc.l))
	}
	x := inc.xs[w]
	x.Reset(inc.l)
	return x
}
