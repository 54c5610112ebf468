package engine

import (
	"sync"

	"repro/internal/graph"
)

// This file is the operational backend of the engine: one goroutine per
// node, flooding full-information snapshots for t synchronous rounds. After
// t rounds each node has gathered (a superset of) its radius-t
// neighbourhood; the backend then restricts the gathered knowledge to the
// induced ball B(v, t) so the decider receives exactly the view
// (G, x, Id) |> B(v, t) of the functional definition. The parity suite pins
// this backend against the functional ones node for node (experiment E13
// reports the cost gap).
//
// Rounds are per link, as in Awerbuch's α-synchronizer (J. ACM 32(4),
// 1985), not behind a global barrier: every directed edge carries exactly
// one envelope per round, and a node enters round r+1 once it holds each
// neighbour's round-r envelope. A sender is therefore at most one round
// ahead of any receiver, so a channel buffered for one envelope per link
// cannot deadlock.
//
// Message faults ride in the same envelopes. An Injector rules on every
// (round, directed edge) send — lost after a bounded retransmit budget,
// duplicated, or delayed by d rounds — and the sender packs each envelope
// with the copies its receiver absorbs that round: its on-time snapshot,
// plus any duplicated or delayed copies now due. An envelope whose copies
// were lost travels empty; the receiver absorbs what arrives and never
// consults the injector. A lossless run is the empty fate plan: every copy
// on time, nothing parked, every node clean.
//
// The degradation ladder keeps verdicts right under every fault mix. The
// fate plan, computed before the protocol starts, calls a node clean when no
// copy in its radius-t dependency cone was lost or late: a clean node has
// gathered exactly its induced ball and decides the assembled view. Any
// other node declares its view incomplete and decides the functional view
// from a shared extractor instead, so message faults cost time, never
// verdicts.
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
// extractor's, rebound to the known subgraph.
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

// hiddenID is node v's routing identifier in the flooding runtime: the
// instance's real identifier when the evaluation carries them, a throwaway
// node index otherwise (stripped from the assembled views before the
// decider sees them).
func (j *job) hiddenID(v int) int {
	if j.in == nil {
		return v
	}
	return j.in.IDs[v]
}

// maxMessageDuplicates clamps an injector's per-message duplicate count, so
// one send fans out to a bounded number of copies (ShardedMP buffers every
// copy a halo link carries).
const maxMessageDuplicates = 3

// messageFate resolves one directed message's fate, normalised: no injector
// means delivered-on-time, and duplicate counts arrive pre-clamped.
func (j *job) messageFate(round, from, to int) MessageFate {
	if j.faults == nil {
		return MessageFate{Delivered: true, Attempts: 1}
	}
	fate := j.faults.MessageFate(round, from, to)
	if fate.Duplicates > maxMessageDuplicates {
		fate.Duplicates = maxMessageDuplicates
	}
	if fate.Duplicates < 0 {
		fate.Duplicates = 0
	}
	if fate.Delay < 0 {
		fate.Delay = 0
	}
	return fate
}

// mpFatePlan is a flooding run's fate table: which nodes end the protocol
// clean, and the deterministic fault tally. Without an injector it is empty:
// every node clean, every tally zero.
type mpFatePlan struct {
	clean []bool // clean[v]: every copy in v's dependency cone was on time

	dropped, duplicated, delayed, retransmits int
}

// planFates walks every (round, directed edge) site once, before the
// protocol starts: it accumulates the fault tally and computes the
// transitive cleanliness recursion
//
//	clean_0(v) = true
//	clean_{r+1}(v) = clean_r(v) ∧ ∀(u,v)∈E: onTime_r(u→v) ∧ clean_r(u)
//
// — exactly "v's radius-(r+1) gather is the true ball". The injector being a
// pure function, the senders re-consulting the same sites later see the
// same fates.
func (j *job) planFates(t int) *mpFatePlan {
	n := j.n
	p := &mpFatePlan{clean: make([]bool, n)}
	for v := range p.clean {
		p.clean[v] = true
	}
	if j.faults == nil {
		return p
	}
	next := make([]bool, n)
	for r := 0; r < t; r++ {
		copy(next, p.clean)
		for u := 0; u < n; u++ {
			for _, w := range j.l.G.Neighbors(u) {
				fate := j.messageFate(r, u, int(w))
				if fate.Attempts > 1 {
					p.retransmits += fate.Attempts - 1
				}
				if !fate.Delivered {
					p.dropped++
				} else if fate.Delay > 0 {
					p.delayed++
				}
				p.duplicated += fate.Duplicates
				if !fate.Delivered || fate.Delay > 0 || !p.clean[u] {
					next[w] = false
				}
			}
		}
		p.clean, next = next, p.clean
	}
	return p
}

// envelope is one link's delivery for one round: every snapshot copy its
// receiver absorbs that round. On a lossless run it is the sender's on-time
// snapshot alone, and allocates nothing.
type envelope struct {
	now  *knowledge   // the sender's on-time snapshot; nil if lost or delayed
	more []*knowledge // duplicates and delayed copies due this round
}

// parcel is a copy its sender holds back until the round it is due.
type parcel struct {
	link int // the receiver's position in the sender's row
	due  int // the round whose envelope carries the copy
	know *knowledge
}

// floodLinks wires one envelope channel per directed edge, indexed by the
// edge's CSR slot: slot base[v]+i carries v's envelopes to its i-th
// neighbour. rev[s] is the slot of the opposite direction, so v reads its
// i-th neighbour's envelopes from chans[rev[base[v]+i]]. Rows are sorted
// and visited in ascending order, so one cursor per row finds every reverse
// slot in a single sweep.
func floodLinks(g *graph.Graph) (base []int, chans []chan envelope, rev []int) {
	n := g.N()
	base = make([]int, n+1)
	for v := 0; v < n; v++ {
		base[v+1] = base[v] + g.Degree(v)
	}
	chans = make([]chan envelope, base[n])
	rev = make([]int, base[n])
	cursor := append([]int(nil), base[:n]...)
	for v := 0; v < n; v++ {
		for i, u := range g.Neighbors(v) {
			s := base[v] + i
			chans[s] = make(chan envelope, 1)
			rev[s] = cursor[u]
			cursor[u]++
		}
	}
	return base, chans, rev
}

type mpScheduler struct{}

func (mpScheduler) Name() string { return "message-passing" }

// run floods for t rounds, one goroutine per node; see the file comment for
// the protocol and the degradation ladder.
func (mpScheduler) run(j *job) {
	// The flooding runtime assembles every view operationally and never
	// deduplicates (see Options.Dedup).
	j.cache = nil
	if j.checkCanceled() {
		return
	}
	n, t := j.n, j.dec.Horizon
	j.stats.Rounds = t
	j.stats.Workers = n
	plan := j.planFates(t)
	j.stats.Dropped = plan.dropped
	j.stats.Duplicated = plan.duplicated
	j.stats.Delayed = plan.delayed
	j.stats.Retransmits = plan.retransmits
	base, chans, rev := floodLinks(j.l.G)

	var (
		wg       sync.WaitGroup
		fallback fallbackExtractor
	)
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func(v int) {
			defer wg.Done()
			var c counters
			buf := newNodeKnowledge(j, v, j.hiddenID(v))
			row := j.l.G.Neighbors(v)
			var parked []parcel
			for round := 0; round < t; round++ {
				snap := buf.snapshot()
				for i, u := range row {
					var env envelope
					// Every copy the fate lets through counts as sent, even
					// one due at or after round t, which no envelope carries.
					if fate := j.messageFate(round, v, int(u)); fate.Delivered {
						copies := 1 + fate.Duplicates
						c.messages += copies
						c.units += copies * snap.size()
						due := round + fate.Delay
						if due == round {
							env.now = snap
							copies--
						}
						for ; copies > 0 && due < t; copies-- {
							parked = append(parked, parcel{link: i, due: due, know: snap})
						}
					}
					// Hand over the held-back copies due on this link now.
					for k := 0; k < len(parked); {
						if p := parked[k]; p.link == i && p.due == round {
							env.more = append(env.more, p.know)
							parked[k] = parked[len(parked)-1]
							parked = parked[:len(parked)-1]
						} else {
							k++
						}
					}
					chans[base[v]+i] <- env
				}
				for i := range row {
					env := <-chans[rev[base[v]+i]]
					if env.now != nil {
						buf.absorb(env.now)
					}
					for _, k := range env.more {
						buf.absorb(k)
					}
				}
			}

			decide := func(v int) Verdict { return j.decideGathered(buf.cur, v) }
			if !plan.clean[v] {
				c.incomplete++
				decide = func(v int) Verdict { return fallback.decide(j, v) }
			}
			// Neighbours depended on every send above, so the protocol ran
			// to completion; the decide is skipped once the evaluation has
			// stopped. Evaluated counts the node once, however many attempts
			// it took.
			if !j.stop() {
				verdict, ok := j.guarded(&c, v, decide)
				c.evaluated++
				j.commit(v, verdict, ok)
			}
			j.merge(&c)
		}(v)
	}
	wg.Wait()
}

// fallbackExtractor is the shared extractor serving incomplete nodes, built
// on first use: one per run, mutex-guarded because extractor views are
// scratch-backed and the decide must finish before the next extraction.
type fallbackExtractor struct {
	mu sync.Mutex
	x  *graph.ViewExtractor
}

// decide extracts node v's true functional view and decides it, serialised
// on the extractor's lock. The extracted view is exactly the functional
// definition of the node's radius-t view, so fallback verdicts equal
// lossless verdicts.
func (f *fallbackExtractor) decide(j *job, v int) Verdict {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.x == nil {
		f.x = j.extractor()
	}
	view := f.x.At(v, j.dec.Horizon)
	return j.decideView(view, v)
}
