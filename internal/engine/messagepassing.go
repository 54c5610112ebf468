package engine

import (
	"sync"

	"repro/internal/graph"
)

// This file is the operational backend of the engine: one goroutine per
// node, communicating over per-edge channels in synchronous rounds. After t
// rounds of full-information flooding each node has gathered (a superset of)
// its radius-t neighbourhood; the backend then restricts the gathered
// knowledge to the induced ball B(v, t) so the decider receives exactly the
// view (G, x, Id) |> B(v, t) of the functional definition. The parity suite
// pins this backend against the functional ones node for node (experiment
// E13 reports the cost gap). It descends from internal/local's original
// runtime, which now delegates here.
//
// Knowledge is held in flat sorted-row form (the same CSR discipline as the
// extractor arena), not per-node maps: a node's picture of the network is a
// strictly-ascending list of known node addresses with parallel label/id
// columns and one full host adjacency row per known node. Two pictures merge
// with a single two-pointer sweep over the flat arrays, and each goroutine
// merges into a double buffer, so the steady state allocates only the
// per-round immutable snapshot it must publish to its neighbours.

// knowledge is a node's accumulated picture of the network, keyed by the
// runtime's hidden node addresses (never exposed to deciders), in flat
// sorted-row form.
//
// Invariant: nodes is strictly ascending and nbrs holds, for each known
// node, its complete host adjacency row — a node only becomes known through
// a snapshot chain rooted at that node, which carries its full row. Rows may
// reference nodes that are not (yet) known; assembleView filters them.
type knowledge struct {
	nodes   []int32       // known node addresses, strictly ascending
	offsets []int32       // len(nodes)+1; row i spans nbrs[offsets[i]:offsets[i+1]]
	nbrs    []int32       // full host rows of the known nodes (host addresses)
	labels  []graph.Label // labels[i] labels nodes[i]
	ids     []int         // ids[i] identifies nodes[i]
}

// size is the knowledge-unit count reported in Stats (known nodes).
func (k *knowledge) size() int { return len(k.nodes) }

// lookupKnown binary-searches the ascending known-node column.
func lookupKnown(nodes []int32, v int32) (int, bool) {
	lo, hi := 0, len(nodes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if nodes[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(nodes) && nodes[lo] == v {
		return lo, true
	}
	return lo, false
}

// mergeKnowledge writes the union of a and b into dst, reusing dst's
// buffers. Rows of a node known to both sides are identical by the
// knowledge invariant, so the union is a plain two-pointer merge of the
// parallel columns — no per-row set arithmetic.
func mergeKnowledge(dst, a, b *knowledge) {
	dst.nodes = dst.nodes[:0]
	dst.labels = dst.labels[:0]
	dst.ids = dst.ids[:0]
	dst.offsets = append(dst.offsets[:0], 0)
	dst.nbrs = dst.nbrs[:0]
	i, k := 0, 0
	for i < len(a.nodes) || k < len(b.nodes) {
		src, at := a, i
		switch {
		case k >= len(b.nodes):
			i++
		case i >= len(a.nodes) || b.nodes[k] < a.nodes[i]:
			src, at = b, k
			k++
		case a.nodes[i] < b.nodes[k]:
			i++
		default: // known on both sides
			i++
			k++
		}
		dst.nodes = append(dst.nodes, src.nodes[at])
		dst.labels = append(dst.labels, src.labels[at])
		dst.ids = append(dst.ids, src.ids[at])
		dst.nbrs = append(dst.nbrs, src.nbrs[src.offsets[at]:src.offsets[at+1]]...)
		dst.offsets = append(dst.offsets, int32(len(dst.nbrs)))
	}
}

// knowledgeBuf is one goroutine's working knowledge: a double buffer that
// absorbs incoming snapshots by merging cur+src into spare and flipping, so
// repeated merges churn two reusable arenas instead of allocating per merge.
type knowledgeBuf struct {
	cur, spare *knowledge
}

// newNodeKnowledge seeds node v's initial picture: itself, its label, its
// hidden identifier, and its full host row. The row is copied, not aliased:
// the initial buffer cycles through the merge double-buffer, whose in-place
// truncate-and-append would otherwise scribble over the host's shared
// neighbour arena.
func newNodeKnowledge(j *job, v, id int) *knowledgeBuf {
	row := j.l.G.Neighbors(v)
	cur := &knowledge{
		nodes:   []int32{int32(v)},
		offsets: []int32{0, int32(len(row))},
		nbrs:    append(make([]int32, 0, len(row)), row...),
		labels:  []graph.Label{j.l.Labels[v]},
		ids:     []int{id},
	}
	return &knowledgeBuf{cur: cur, spare: &knowledge{}}
}

// absorb merges one incoming snapshot into the working knowledge.
func (b *knowledgeBuf) absorb(src *knowledge) {
	mergeKnowledge(b.spare, b.cur, src)
	b.cur, b.spare = b.spare, b.cur
}

// snapshot publishes an immutable exact-size copy of the working knowledge —
// the one steady-state allocation of a protocol round (receivers keep
// merging from it while the sender's working buffers move on).
func (b *knowledgeBuf) snapshot() *knowledge {
	k := b.cur
	return &knowledge{
		nodes:   append(make([]int32, 0, len(k.nodes)), k.nodes...),
		offsets: append(make([]int32, 0, len(k.offsets)), k.offsets...),
		nbrs:    append(make([]int32, 0, len(k.nbrs)), k.nbrs...),
		labels:  append(make([]graph.Label, 0, len(k.labels)), k.labels...),
		ids:     append(make([]int, 0, len(k.ids)), k.ids...),
	}
}

// mpAssemblers pools the ViewExtractors backing knowledge assembly: each
// node decides exactly once, so a small pool of extractors (with their flat
// arenas and canonical-code workspaces) cycles through the whole run instead
// of every goroutine growing its own.
var mpAssemblers = sync.Pool{
	New: func() any {
		return graph.NewViewExtractor(graph.NewLabeled(graph.FromEdges(0, nil), nil))
	},
}

// assembleView restricts gathered knowledge to the induced radius-t ball
// around centre and packages it as a View matching graph.ViewOf. The known
// subgraph is built by filtering each known node's full host row to the
// known set — a monotone dense renumbering, so BFS discovery order (and with
// it the exact view layout) is preserved — and the ball restriction is the
// extractor's, rebound to the known subgraph. Both faulty and lossless
// message-passing paths, and the sharded runtime's halo assembly, share this
// one routine.
func assembleView(x *graph.ViewExtractor, know *knowledge, centre, t int, oblivious bool) *graph.View {
	k := len(know.nodes)
	offsets := make([]int32, k+1)
	nbrs := make([]int32, 0, len(know.nbrs))
	for i := 0; i < k; i++ {
		for _, u := range know.nbrs[know.offsets[i]:know.offsets[i+1]] {
			if li, ok := lookupKnown(know.nodes, u); ok {
				nbrs = append(nbrs, int32(li))
			}
		}
		offsets[i+1] = int32(len(nbrs))
	}
	g := graph.BuildCSR(offsets, func(dst []int32) { copy(dst, nbrs) })
	l := graph.NewLabeled(g, know.labels)
	centreIdx, ok := lookupKnown(know.nodes, int32(centre))
	if !ok {
		panic("engine: assembleView centre not in its own knowledge")
	}
	if oblivious {
		x.Reset(l)
	} else {
		// The identifier column is pairwise distinct by construction (one
		// hidden identifier per node), so the Instance is built directly
		// instead of through NewInstance's validating copy.
		x.ResetInstance(&graph.Instance{Labeled: l, IDs: know.ids})
	}
	view := x.At(centreIdx, t)
	// The extractor numbered Original against the known subgraph; rebind it
	// to host addresses (in place — the slice is extractor scratch, reset on
	// the next extraction).
	for i, w := range view.Original {
		view.Original[i] = int(know.nodes[w])
	}
	return view
}

// decideGathered decides node v from the knowledge it gathered: the ball
// restricted to radius t, assembled on a pooled extractor.
func (j *job) decideGathered(know *knowledge, v int) Verdict {
	x := mpAssemblers.Get().(*graph.ViewExtractor)
	verdict := j.decideView(assembleView(x, know, v, j.dec.Horizon, j.in == nil), v)
	mpAssemblers.Put(x)
	return verdict
}

// decideFlooded is the flooding runtimes' decide step for node v, run after
// the protocol: the guarded decide plus commit, skipped once an early-exit
// evaluation has seen a No (the protocol itself must run to completion —
// neighbours depend on this node's sends). Evaluated counts the node once,
// however many attempts it took.
func (j *job) decideFlooded(c *counters, v int, body func(v int) Verdict) {
	if j.exited() {
		return
	}
	verdict, ok := j.guarded(c, v, body)
	c.evaluated++
	j.commit(v, verdict, ok)
}

// hiddenID is node v's routing identifier in the flooding runtimes: the
// instance's real identifier when the evaluation carries them, a throwaway
// node index otherwise (stripped from the assembled views before the
// decider sees them).
func (j *job) hiddenID(v int) int {
	if j.in == nil {
		return v
	}
	return j.in.IDs[v]
}

type mpScheduler struct{}

func (mpScheduler) Name() string { return "message-passing" }

func (mpScheduler) run(j *job) {
	// The flooding runtime assembles every view operationally and never
	// deduplicates (see Options.Dedup).
	j.cache = nil
	// Cancellation is honoured at launch only: mid-protocol the per-node
	// goroutines are interlocked through round barriers (a node that stops
	// sending deadlocks its neighbours), so bounded rounds come from
	// Options.RoundTimeout, not Ctx. See Options.Ctx.
	if j.checkCanceled() {
		return
	}
	j.stats.Rounds = j.dec.Horizon
	j.stats.Workers = j.n
	// Fault injection or a round timeout switches to the hardened runtime
	// (mpfaulty.go); the lossless path below stays byte-identical to the
	// seed-era protocol apart from the guarded decide stage.
	if j.faults != nil || j.opts.RoundTimeout > 0 {
		runMPFaulty(j)
		return
	}
	runMPLossless(j)
}

func runMPLossless(j *job) {
	n := j.n
	t := j.dec.Horizon

	// Per-directed-edge channels, buffered for one message: within a round
	// every node first sends to all neighbours, then receives, so a buffer
	// of one message per edge keeps rounds deadlock-free.
	type edgeKey struct{ from, to int }
	chans := make(map[edgeKey]chan *knowledge, 2*j.l.G.M())
	for u := 0; u < n; u++ {
		for _, v := range j.l.G.Neighbors(u) {
			chans[edgeKey{from: u, to: int(v)}] = make(chan *knowledge, 1)
		}
	}

	var wg sync.WaitGroup
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func(v int) {
			defer wg.Done()
			var c counters
			buf := newNodeKnowledge(j, v, j.hiddenID(v))
			for round := 0; round < t; round++ {
				// Send a snapshot to every neighbour, then receive from every
				// neighbour. The per-edge one-slot buffers make each round a
				// synchronisation barrier with the local neighbourhood.
				snapshot := buf.snapshot()
				for _, u := range j.l.G.Neighbors(v) {
					chans[edgeKey{from: v, to: int(u)}] <- snapshot
					c.messages++
					c.units += snapshot.size()
				}
				for _, u := range j.l.G.Neighbors(v) {
					buf.absorb(<-chans[edgeKey{from: int(u), to: v}])
				}
			}
			j.decideFlooded(&c, v, func(v int) Verdict { return j.decideGathered(buf.cur, v) })
			j.merge(&c)
		}(v)
	}
	wg.Wait()
}
