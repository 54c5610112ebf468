package engine

import (
	"slices"
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
// A node's knowledge is the set of hidden node addresses (never exposed to
// deciders) it has heard of, held as one strictly ascending []int32. A
// node's label, identifier and host row are fixed per address, so nothing
// else needs to travel: view assembly reads them from the host. Two
// pictures merge with a single two-pointer sweep over one column into a
// double buffer, so the steady state allocates only the per-round
// immutable snapshot each node publishes to its neighbours.
//
// The node goroutines run only the t rounds. Once every one has finished,
// the kernel's pool decides all nodes, one worker per CPU, each assembling
// its nodes' views on its own extractor and reusable buffers.

// mergeKnowledge writes the union of the ascending address sets a and b
// into dst's buffer and returns it, growing the buffer only when a and b
// together could overflow it.
func mergeKnowledge(dst, a, b []int32) []int32 {
	if need := len(a) + len(b); cap(dst) < need {
		dst = make([]int32, 0, need)
	}
	dst = dst[:0]
	i, k := 0, 0
	for i < len(a) && k < len(b) {
		switch {
		case a[i] < b[k]:
			dst = append(dst, a[i])
			i++
		case b[k] < a[i]:
			dst = append(dst, b[k])
			k++
		default: // known on both sides
			dst = append(dst, a[i])
			i++
			k++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[k:]...)
}

// knowledgeBuf is one goroutine's working knowledge: a double buffer that
// absorbs incoming snapshots by merging cur+src into spare and flipping, so
// repeated merges churn two reusable arrays instead of allocating per merge.
type knowledgeBuf struct {
	cur, spare []int32
}

// newNodeKnowledge seeds node v's initial picture: v alone.
func newNodeKnowledge(v int) knowledgeBuf {
	return knowledgeBuf{cur: []int32{int32(v)}}
}

// absorb merges one incoming snapshot into the working knowledge.
func (b *knowledgeBuf) absorb(src []int32) {
	b.spare = mergeKnowledge(b.spare, b.cur, src)
	b.cur, b.spare = b.spare, b.cur
}

// snapshot publishes an immutable exact-size copy of the working knowledge —
// the one steady-state allocation of a protocol round (receivers keep
// merging from it while the sender's working buffers move on).
func (b *knowledgeBuf) snapshot() []int32 { return slices.Clone(b.cur) }

// assembler builds gathered views for one decide worker. Its buffers and
// extractor are reused from node to node; a view it returns is valid until
// its next one.
type assembler struct {
	x       *graph.ViewExtractor
	offsets []int32
	nbrs    []int32
	labels  []graph.Label
	ids     []int
	l       graph.Labeled
	in      graph.Instance
}

// view restricts the knowledge known to the induced radius-t ball around
// centre and packages it as a View matching graph.ViewOf. The known
// subgraph is built by filtering each known node's host row to the known
// set — a monotone dense renumbering, so BFS discovery order (and with it
// the exact view layout) is preserved — and the ball restriction is the
// extractor's, rebound to the known subgraph.
func (a *assembler) view(j *job, known []int32, centre int) *graph.View {
	a.offsets = append(a.offsets[:0], 0)
	a.nbrs, a.labels, a.ids = a.nbrs[:0], a.labels[:0], a.ids[:0]
	for _, u := range known {
		for _, w := range j.l.G.Neighbors(int(u)) {
			if li, ok := slices.BinarySearch(known, w); ok {
				a.nbrs = append(a.nbrs, int32(li))
			}
		}
		a.offsets = append(a.offsets, int32(len(a.nbrs)))
		a.labels = append(a.labels, j.l.Labels[u])
		if j.in != nil {
			a.ids = append(a.ids, j.in.IDs[u])
		}
	}
	// The graph aliases a.offsets, which the next assembly overwrites only
	// after this view's decide has returned.
	a.l = graph.Labeled{G: graph.BuildCSR(a.offsets, func(dst []int32) { copy(dst, a.nbrs) }), Labels: a.labels}
	if j.in == nil {
		a.x.Reset(&a.l)
	} else {
		// The identifier column is pairwise distinct, as on the host, so
		// the Instance is built directly instead of through NewInstance's
		// validating copy.
		a.in = graph.Instance{Labeled: &a.l, IDs: a.ids}
		a.x.ResetInstance(&a.in)
	}
	centreIdx, ok := slices.BinarySearch(known, int32(centre))
	if !ok {
		panic("engine: flooding centre not in its own knowledge")
	}
	view := a.x.At(centreIdx, j.dec.Horizon)
	// The extractor numbered Original against the known subgraph; rebind it
	// to host addresses (in place — the slice is extractor scratch, reset on
	// the next extraction).
	for i, w := range view.Original {
		view.Original[i] = int(known[w])
	}
	return view
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

// planFates is a flooding run's fate plan. It walks every (round, directed
// edge) site once, before the protocol starts, tallies the deterministic
// message faults and incomplete views into Stats, and returns which nodes
// end the protocol clean: clean[v] holds when every copy in v's dependency
// cone was on time, by the transitive recursion
//
//	clean_0(v) = true
//	clean_{r+1}(v) = clean_r(v) ∧ ∀(u,v)∈E: onTime_r(u→v) ∧ clean_r(u)
//
// — exactly "v's radius-(r+1) gather is the true ball". Without an injector
// every node is clean and every tally zero. The injector being a pure
// function, the senders re-consulting the same sites later see the same
// fates.
func (j *job) planFates(t int) []bool {
	n, s := j.n, &j.stats
	clean := make([]bool, n)
	for v := range clean {
		clean[v] = true
	}
	if j.faults == nil {
		return clean
	}
	next := make([]bool, n)
	for r := 0; r < t; r++ {
		copy(next, clean)
		for u := 0; u < n; u++ {
			for _, w := range j.l.G.Neighbors(u) {
				fate := j.messageFate(r, u, int(w))
				if fate.Attempts > 1 {
					s.Retransmits += fate.Attempts - 1
				}
				if !fate.Delivered {
					s.Dropped++
				} else if fate.Delay > 0 {
					s.Delayed++
				}
				s.Duplicated += fate.Duplicates
				if !fate.Delivered || fate.Delay > 0 || !clean[u] {
					next[w] = false
				}
			}
		}
		clean, next = next, clean
	}
	for _, ok := range clean {
		if !ok {
			s.IncompleteViews++
		}
	}
	return clean
}

// envelope is one link's delivery for one round: every snapshot copy its
// receiver absorbs that round. On a lossless run it is the sender's on-time
// snapshot alone, and allocates nothing.
type envelope struct {
	now  []int32   // the sender's on-time snapshot; nil if lost or delayed
	more [][]int32 // duplicates and delayed copies due this round
}

// parcel is a copy its sender holds back until the round it is due.
type parcel struct {
	link int // the receiver's position in the sender's row
	due  int // the round whose envelope carries the copy
	know []int32
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

// run floods for t rounds, one goroutine per node, then decides every node
// on the kernel's pool; see the file comment for the protocol and the
// degradation ladder.
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
	clean := j.planFates(t)
	base, chans, rev := floodLinks(j.l.G)

	// known[v] is node v's gathered knowledge, written by its goroutine
	// before wg.Done and read by the decide stage after wg.Wait.
	known := make([][]int32, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for v := 0; v < n; v++ {
		go func(v int) {
			defer wg.Done()
			var c counters
			buf := newNodeKnowledge(v)
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
						c.units += copies * len(snap)
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
			known[v] = buf.cur
			j.merge(&c)
		}(v)
	}
	wg.Wait()

	// The decide stage. Neighbours depended on every send above, so the
	// protocol ran to completion; a node is skipped once the evaluation has
	// stopped. Evaluated counts a node once, however many attempts it took.
	var (
		p        pool
		fallback fallbackExtractor
	)
	p.reset(n, poolWidth(0, n))
	p.run(func(int) {
		var c counters
		// The extractor is rebound to each known subgraph, so it starts on
		// an empty host instead of sizing its BFS buffers to this one.
		a := assembler{x: graph.NewViewExtractor(&graph.Labeled{G: graph.New(0)})}
		gathered := func(v int) Verdict { return j.decideView(a.view(j, known[v], v), v) }
		full := func(v int) Verdict { return fallback.decide(j, v) }
		for v, more := p.claim(); more && !j.stop(); v, more = p.claim() {
			decide := gathered
			if !clean[v] {
				decide = full
			}
			verdict, ok := j.guarded(&c, v, decide)
			c.evaluated++
			j.commit(v, verdict, ok)
		}
		j.merge(&c)
	})
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
