package engine

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/graph"
)

// This file is the operational backend of the engine: the synchronous
// flooding protocol, run for t rounds. After t rounds each node has gathered
// (a superset of) its radius-t neighbourhood; the backend then restricts the
// gathered knowledge to the induced ball B(v, t) so the decider receives
// exactly the view (G, x, Id) |> B(v, t) of the functional definition. The
// parity suite pins this backend against the functional ones node for node
// (experiment E13 reports the cost gap).
//
// A node's knowledge is the set of hidden node addresses (never exposed to
// deciders) it has heard of, held as one strictly ascending []int32. A
// node's label, identifier and host row are fixed per address, so nothing
// else needs to travel: view assembly reads them from the host.
//
// Rounds are sweeps over receivers on the kernel's pool. Round r+1's set of
// node w is its round-r set merged with the round-r set of every neighbour u
// whose message u→w arrives on time, plus the delayed copies due at round r.
// Workers claim receivers in fixed blocks, and a pool barrier separates
// rounds, so every round reads only the sets of the round before. Union does
// not depend on order, so the sets are those of any message schedule of the
// synchronous protocol. Each round's sets are immutable once written: a set
// nothing new reaches is its predecessor, and a merged set lives in its
// worker's append-only arena, where a delayed copy can alias it for as long
// as the copy is pending.
//
// Message faults are ruled on at the receiver, which consults the Injector
// once per (round, directed edge) site: the message is lost after a bounded
// retransmit budget, duplicated, or delayed by d rounds. The same pass
// tallies the messages and knowledge units every delivered copy carries, the
// four fault counters, and whether the receiver stays clean:
//
//	clean_0(w) = true
//	clean_{r+1}(w) = clean_r(w) ∧ ∀(u,w)∈E: onTime_r(u→w) ∧ clean_r(u)
//
// — exactly "w's radius-(r+1) gather is the true ball". A lossless run has
// no injector to consult: every copy on time, nothing pending, every node
// clean.
//
// The degradation ladder keeps verdicts right under every fault mix. A clean
// node has gathered exactly its induced ball and decides the assembled view.
// Any other node declares its view incomplete and decides the functional
// view from a shared extractor instead, so message faults cost time, never
// verdicts.
//
// A done Options.Ctx stops the protocol between rounds: the run returns
// before the next round, without deciding. Otherwise, once the last round
// is in, the kernel's pool decides all nodes, one worker per CPU, each
// assembling its nodes' views on its own extractor and reusable buffers.

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

// floodBlock is the number of receivers a sweep worker claims at once, so
// the shared cursor is touched once per block rather than once per node.
const floodBlock = 256

// arenaChunk is the size, in addresses, of the chunks a sweep worker's arena
// grows by; a set larger than a chunk gets a chunk of its own.
const arenaChunk = 1 << 12

// pendingCopy is a delayed copy held for its receiver until the round it is
// due: its sender's set of the round it was sent in.
type pendingCopy struct {
	due  int
	know []int32
}

// flood is one flooding run's protocol state between rounds: every node's
// round-r set and whether its gather is incomplete (the clean recursion's
// complement), and the round-(r+1) arrays the next sweep writes.
type flood struct {
	j                          *job
	cur, next                  [][]int32
	incomplete, nextIncomplete []bool
	// pending[w] holds the delayed copies w has yet to absorb; nil without
	// an injector.
	pending [][]pendingCopy
}

// sweeper is one sweep worker's state, kept from round to round.
type sweeper struct {
	c       counters
	arena   []int32    // the current chunk: sets at its head, free space at its tail
	srcs    [][]int32  // the sets the current receiver merges
	scratch [2][]int32 // the double buffer of intermediate merges
}

// flood runs the protocol's t rounds as t sweeps over receivers on a pool of
// the given width. It returns every node's gathered knowledge and whether
// its gather is incomplete. ok is false when the context stopped the run
// between rounds; Stats then counts the rounds it ran.
func (j *job) flood(width int) (known [][]int32, incomplete []bool, ok bool) {
	n, t := j.n, j.dec.Horizon
	f := flood{j: j, cur: make([][]int32, n), next: make([][]int32, n),
		incomplete: make([]bool, n), nextIncomplete: make([]bool, n)}
	self := make([]int32, n)
	for v := range self {
		self[v] = int32(v)
		f.cur[v] = self[v : v+1 : v+1]
	}
	if j.faults != nil {
		f.pending = make([][]pendingCopy, n)
	}
	blocks := (n + floodBlock - 1) / floodBlock
	ws := make([]sweeper, min(width, blocks))
	var p pool
	rounds := 0
	for ; rounds < t && !j.checkCanceled(); rounds++ {
		p.reset(blocks, len(ws))
		p.run(func(w int) {
			for b, more := p.claim(); more; b, more = p.claim() {
				for v := b * floodBlock; v < min(n, (b+1)*floodBlock); v++ {
					ws[w].receive(&f, rounds, v)
				}
			}
		})
		f.cur, f.next = f.next, f.cur
		f.incomplete, f.nextIncomplete = f.nextIncomplete, f.incomplete
	}
	for w := range ws {
		j.merge(&ws[w].c)
	}
	j.stats.Rounds = rounds
	return f.cur, f.incomplete, rounds == t
}

// receive writes receiver w's round-(r+1) set: it rules on every message w
// receives at round r, tallies what each carries, and merges the copies that
// arrive now.
func (s *sweeper) receive(f *flood, r, w int) {
	j, c := f.j, &s.c
	s.srcs = append(s.srcs[:0], f.cur[w])
	incomplete := f.incomplete[w]
	for _, u := range j.l.G.Neighbors(w) {
		know := f.cur[u]
		fate := j.messageFate(r, int(u), w)
		c.retransmits += max(fate.Attempts-1, 0)
		c.duplicated += fate.Duplicates
		if !fate.Delivered {
			c.dropped++
			incomplete = true
			continue
		}
		// Every copy the fate lets through counts as sent, even one due at
		// or after round t, which no round absorbs.
		copies := 1 + fate.Duplicates
		c.messages += copies
		c.units += copies * len(know)
		if fate.Delay == 0 {
			// One copy suffices: duplicates add nothing to a union.
			s.srcs = append(s.srcs, know)
			incomplete = incomplete || f.incomplete[u]
			continue
		}
		c.delayed++
		incomplete = true
		if due := r + fate.Delay; due < j.dec.Horizon {
			f.pending[w] = append(f.pending[w], pendingCopy{due: due, know: know})
		}
	}
	if f.pending != nil {
		held := f.pending[w][:0]
		for _, p := range f.pending[w] {
			if p.due == r {
				s.srcs = append(s.srcs, p.know)
			} else {
				held = append(held, p)
			}
		}
		f.pending[w] = held
	}
	if incomplete && r == j.dec.Horizon-1 {
		c.incomplete++
	}
	f.nextIncomplete[w] = incomplete
	f.next[w] = s.union()
}

// union merges the current receiver's sources into its next set. A receiver
// nothing reached keeps its set as it is. Otherwise the intermediate merges
// churn the scratch double buffer and the last one writes at the arena's
// tail, capped at its length so that no append can reach the sets after it;
// a set stays there until no round and no pending copy refers to its chunk.
func (s *sweeper) union() []int32 {
	acc, last := s.srcs[0], len(s.srcs)-1
	if last == 0 {
		return acc
	}
	for k := 1; k < last; k++ {
		s.scratch[k%2] = mergeKnowledge(s.scratch[k%2], acc, s.srcs[k])
		acc = s.scratch[k%2]
	}
	if need := len(acc) + len(s.srcs[last]); cap(s.arena)-len(s.arena) < need {
		s.arena = make([]int32, 0, max(arenaChunk, need))
	}
	set := mergeKnowledge(s.arena[len(s.arena):], acc, s.srcs[last])
	s.arena = s.arena[:len(s.arena)+len(set)]
	return set[:len(set):len(set)]
}

// rankIndex maps host addresses to their positions in an ascending address
// set ext, in O(1) per query: a bitmap of ext over the host's addresses and,
// for each word holding members, the number of members in the words before
// it. Its footprint is n/64 words and n/64 counts whatever the size of ext,
// and a build, with the clearing of the set built before, takes O(|ext|).
// The zero value is ready to build.
type rankIndex struct {
	bits  []uint64 // bit u%64 of word u/64 is set iff u is in ext
	base  []int32  // base[w]: the members below word w, valid where bits[w] != 0
	words []int32  // the words holding members, cleared by the next build
}

// build indexes ext, a strictly ascending set of addresses in [0, n),
// replacing the set indexed before.
func (x *rankIndex) build(ext []int32, n int) {
	if words := (n + 63) / 64; len(x.bits) != words {
		x.bits, x.base = make([]uint64, words), make([]int32, words)
	} else {
		for _, w := range x.words {
			x.bits[w] = 0
		}
	}
	x.words = x.words[:0]
	for i, u := range ext {
		w := u / 64
		if x.bits[w] == 0 {
			x.base[w] = int32(i)
			x.words = append(x.words, w)
		}
		x.bits[w] |= 1 << (u % 64)
	}
}

// rank returns u's position in the indexed set and whether u is in it, as
// slices.BinarySearch does for members. An address outside [0, n) is
// absent.
func (x *rankIndex) rank(u int32) (int, bool) {
	w := uint(u) / 64 // a negative u wraps past every word
	if w >= uint(len(x.bits)) {
		return 0, false
	}
	word, bit := x.bits[w], uint64(1)<<(uint(u)%64)
	if word&bit == 0 {
		return 0, false
	}
	return int(x.base[w]) + bits.OnesCount64(word&(bit-1)), true
}

// assembler builds sub-host views for one decide worker of either
// message-passing runtime: a flooding node's known subgraph, or a shard's
// owned nodes plus ghosts. Everything it builds lives in buffers it reuses
// from host to host: the rank index over the sub-host's addresses, the CSR
// arrays and the Graph and Instance values bound to them, and the
// extractor, so a sub-host allocates nothing once the buffers have grown to
// the largest one seen. A view it returns is valid until its next one, and
// a sub-host until the next host call. The zero value is ready to use.
type assembler struct {
	x       *graph.ViewExtractor
	idx     rankIndex
	offsets []int32
	nbrs    []int32
	labels  []graph.Label
	ids     []int
	bind    graph.CSRBinder
	g       graph.Graph
	l       graph.Labeled
	in      graph.Instance
}

// host builds the sub-host induced on the ascending address set ext and
// binds the extractor to it. A node's label, identifier and row come from
// its record in ghosts (ascending by node) when it has one, and from the
// host otherwise. Each row is filtered to ext and renumbered through the
// rank index: a monotone dense renumbering, so BFS discovery order (and
// with it the exact view layout) is preserved. A reference outside ext, or
// outside the host, is outside every ball the caller extracts and is
// dropped. The sub-host is bound in place through graph.CSRBinder, so it
// passes all of BuildCSR's validation. Time is linear in the rows read.
func (a *assembler) host(j *job, ext []int32, ghosts []ghostRec) {
	k := len(ext)
	a.idx.build(ext, j.n)
	a.offsets = slices.Grow(a.offsets[:0], k+1)[:k+1]
	a.labels = slices.Grow(a.labels[:0], k)[:k]
	if j.in != nil {
		a.ids = slices.Grow(a.ids[:0], k)[:k]
	}
	// The filtered rows go to a.nbrs, sized first to their unfiltered total.
	bound, gs := 0, ghosts
	for _, v := range ext {
		if len(gs) > 0 && gs[0].node == v {
			bound, gs = bound+len(gs[0].row), gs[1:]
		} else {
			bound += j.l.G.Degree(int(v))
		}
	}
	a.offsets[0], a.nbrs = 0, slices.Grow(a.nbrs[:0], bound)
	for i, v := range ext {
		var row []int32
		if len(ghosts) > 0 && ghosts[0].node == v {
			row, a.labels[i] = ghosts[0].row, ghosts[0].label
			if j.in != nil {
				a.ids[i] = ghosts[0].id
			}
			ghosts = ghosts[1:]
		} else {
			row, a.labels[i] = j.l.G.Neighbors(int(v)), j.l.Labels[v]
			if j.in != nil {
				a.ids[i] = j.in.IDs[v]
			}
		}
		for _, u := range row {
			if li, ok := a.idx.rank(u); ok {
				a.nbrs = append(a.nbrs, int32(li))
			}
		}
		a.offsets[i+1] = int32(len(a.nbrs))
	}
	// The graph aliases a.offsets and a.nbrs, which the next host call
	// overwrites only after the decides on this sub-host have returned.
	a.bind.Bind(&a.g, a.offsets, a.nbrs)
	a.l = graph.Labeled{G: &a.g, Labels: a.labels}
	if a.x == nil {
		// Built on the first sub-host, so its BFS buffers are sized to
		// sub-hosts, never to the whole host.
		a.x = graph.NewViewExtractor(&a.l)
	}
	if j.in == nil {
		a.x.Reset(&a.l)
	} else {
		// The identifier column is pairwise distinct, as on the host, so
		// the Instance is bound directly instead of through NewInstance's
		// validating copy.
		a.in = graph.Instance{Labeled: &a.l, IDs: a.ids}
		a.x.ResetInstance(&a.in)
	}
}

// local returns the sub-host index of host address v, which must be in the
// set the last host call was built on.
func (a *assembler) local(v int32) int {
	li, ok := a.idx.rank(v)
	if !ok {
		panic("engine: node missing from its own sub-host")
	}
	return li
}

// at extracts the radius-t view of node li of the sub-host built on ext,
// and rebinds View.Original from sub-host indices to host addresses (in
// place: the slice is extractor scratch, reset on the next extraction).
func (a *assembler) at(j *job, ext []int32, li int) *graph.View {
	view := a.x.At(li, j.dec.Horizon)
	for i, w := range view.Original {
		view.Original[i] = int(ext[w])
	}
	return view
}

// view restricts the knowledge known to the induced radius-t ball around
// centre and packages it as a View matching graph.ViewOf: the known
// subgraph, then the extractor's ball restriction on it.
func (a *assembler) view(j *job, known []int32, centre int) *graph.View {
	a.host(j, known, nil)
	return a.at(j, known, a.local(int32(centre)))
}

// maxMessageDuplicates clamps an injector's per-message duplicate count, so
// one send fans out to a bounded number of copies.
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

type mpScheduler struct{}

func (mpScheduler) Name() string { return "message-passing" }

// run floods for t rounds, then decides every node on the kernel's pool;
// see the file comment for the protocol and the degradation ladder.
func (mpScheduler) run(j *job) {
	// The flooding runtime assembles every view operationally and never
	// deduplicates (see Options.Dedup).
	j.cache = nil
	if j.checkCanceled() {
		return
	}
	width := poolWidth(0, j.n)
	j.stats.Workers = width
	known, incomplete, ok := j.flood(width)
	if !ok {
		return
	}

	// The decide stage. A node is skipped once the evaluation has stopped.
	// Evaluated counts a node once, however many attempts it took.
	var (
		p        pool
		fallback fallbackExtractor
	)
	p.reset(j.n, width)
	p.run(func(int) {
		var c counters
		var a assembler
		gathered := func(v int) Verdict { return j.decideView(a.view(j, known[v], v), v) }
		full := func(v int) Verdict { return fallback.decide(j, v) }
		for v, more := p.claim(); more && !j.stop(); v, more = p.claim() {
			decide := gathered
			if incomplete[v] {
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
