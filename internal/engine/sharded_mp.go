package engine

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"repro/internal/graph"
)

// This file is the sharded message-passing runtime: the host graph is
// partitioned into p shards (graph.Partition), each shard runs as one worker
// owning its slice of the instance — its nodes' CSR rows, its own
// ViewExtractor arena, and (through the fingerprint striping of the shared
// ViewCache) its working set of the 64 cache stripes — and the only data
// that ever crosses a shard boundary is the halo: the depth-t boundary ball
// each shard needs to complete the radius-t views of its rim nodes.
//
// The exchange is round-structured like the flooding protocol, but with no
// transitive dependency: the ghost nodes a shard imports are owned by the
// sender, so ring r of a link (the ghosts at boundary distance exactly r)
// can be scheduled before the protocol starts. Because consecutive rounds'
// halos overlap totally (B(boundary, r) ⊇ B(boundary, r-1)), each round
// ships only the new ring, delta-encoded: gap-coded node ids, labels
// back-referenced against a per-link dictionary persisted across rounds,
// and adjacency rows gap-coded from the node id. Sent bytes and ghost-node
// counts are tallied per round into Stats — the shard-boundary
// communication cost the related-work communication games measure.
//
// Soundness of local evaluation (DESIGN.md §9): for an owned node v, every
// node of B(v, t) lies in owned(s) ∪ ghost(s), every node BFS expands
// (depth < t from v) has its full row available locally, and the
// owned+ghost set is renumbered monotonically — so the extractor, rebound
// to the local sub-host, discovers the exact same view, byte for byte, as
// it would on the full host. Verdicts are therefore bit-identical to the
// sequential scheduler, which the parity suite pins across shard counts.
//
// Fault injection applies per shard-pair link: Injector.MessageFate is
// consulted at sites (round, fromShard, toShard) — a pure function of the
// seed, so the schedule stays replayable on any machine. A lost ring (drop,
// or delay past the last round) degrades the receiving shard: its rim nodes
// fall back to extractor evaluation on the full host (degraded, never
// wrong); interior nodes, whose balls never leave the shard, still evaluate
// locally.

// ShardedMP evaluates on a partition-based worker pool: p shards exchanging
// delta-encoded halo (ghost-node) rings over per-shard-pair channels, then
// deciding their owned nodes on shard-local extractors. p defaults to
// GOMAXPROCS; partitioning defaults to BFS-blocked.
var ShardedMP Scheduler = shardedMPScheduler{}

// ShardedMPWith returns a ShardedMP scheduler with an explicit shard count
// (still capped at n).
func ShardedMPWith(shards int) Scheduler {
	if shards < 1 {
		panic("engine: shard count must be positive")
	}
	return shardedMPScheduler{shards: shards}
}

// ShardedMPPartitioned returns a ShardedMP scheduler with an explicit shard
// count and partition strategy — level-contiguous for the level-ordered
// families (pyramids, layered trees), BFS-blocked otherwise.
func ShardedMPPartitioned(shards int, strategy graph.PartitionStrategy) Scheduler {
	if shards < 1 {
		panic("engine: shard count must be positive")
	}
	return shardedMPScheduler{shards: shards, strategy: strategy}
}

type shardedMPScheduler struct {
	shards   int // 0 = GOMAXPROCS
	strategy graph.PartitionStrategy
}

func (shardedMPScheduler) Name() string { return "sharded-mp" }

// haloRing is one link's round-r payload schedule: the sender-owned ghost
// nodes at boundary distance exactly r+1 from the receiver's owned set
// (ring index r is the 0-based protocol round it ships in).
type haloRing struct {
	round int
	nodes []int32
}

// haloSend is a scheduled transmission after fate resolution.
type haloSend struct {
	ring   haloRing
	copies int // 1 + duplicates
}

// haloMsg is one transmitted copy on a link channel.
type haloMsg struct {
	round   int
	payload []byte
}

// haloLink is one ordered shard pair's exchange plan. Both endpoints read
// it; it is immutable once planned.
type haloLink struct {
	from, to int
	rings    []haloRing // scheduled rings, ascending round
	sends    []haloSend // rings that will actually be transmitted, ascending round
	expect   int        // total copies the receiver must drain
	lost     bool       // some scheduled ring never arrives: receiver degrades
	ch       chan haloMsg
}

func (s shardedMPScheduler) run(j *job) {
	if j.checkCanceled() {
		return
	}
	t := j.dec.Horizon
	p := s.shards
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	part := graph.NewPartition(j.l.G, p, s.strategy)
	p = part.Shards()
	j.stats.Rounds = t
	j.stats.Workers = p
	j.stats.Shards = p

	// Plan phase: boundary balls, ring schedules, fates. Halo reuses the
	// partition's traversal scratch, so this stays single-threaded.
	rims := make([][]int32, p)          // owned nodes whose ball can leave the shard
	ringNodes := make([][][][]int32, p) // [from][to][round] ghost nodes
	for to := 0; to < p; to++ {
		nodes, depth := part.Halo(to, t)
		for i, v := range nodes {
			owner := part.ShardOf(int(v))
			if owner == to {
				if int(depth[i]) <= t-1 {
					rims[to] = append(rims[to], v)
				}
				continue
			}
			if ringNodes[owner] == nil {
				ringNodes[owner] = make([][][]int32, p)
			}
			if ringNodes[owner][to] == nil {
				ringNodes[owner][to] = make([][]int32, t)
			}
			r := int(depth[i]) - 1 // ghosts have depth >= 1
			ringNodes[owner][to][r] = append(ringNodes[owner][to][r], v)
		}
	}
	inLinks := make([][]*haloLink, p)
	outLinks := make([][]*haloLink, p)
	degraded := make([]bool, p)
	for from := 0; from < p; from++ {
		if ringNodes[from] == nil {
			continue
		}
		for to := 0; to < p; to++ {
			var rings []haloRing
			for r, nodes := range ringNodes[from][to] {
				if len(nodes) > 0 {
					rings = append(rings, haloRing{round: r, nodes: nodes})
				}
			}
			if len(rings) == 0 {
				continue
			}
			l := &haloLink{from: from, to: to, rings: rings}
			for _, ring := range rings {
				fate := j.messageFate(ring.round, from, to)
				if fate.Attempts > 1 {
					j.stats.Retransmits += fate.Attempts - 1
				}
				if !fate.Delivered {
					j.stats.Dropped++
					l.lost = true
					continue
				}
				if fate.Delay > 0 {
					j.stats.Delayed++
					if ring.round+fate.Delay >= t {
						// Arrives after the protocol's last round: lost.
						l.lost = true
						continue
					}
				}
				j.stats.Duplicated += fate.Duplicates
				l.sends = append(l.sends, haloSend{ring: ring, copies: 1 + fate.Duplicates})
				l.expect += 1 + fate.Duplicates
			}
			l.ch = make(chan haloMsg, l.expect)
			outLinks[from] = append(outLinks[from], l)
			inLinks[to] = append(inLinks[to], l)
			if l.lost {
				degraded[to] = true
			}
		}
	}
	withIDs := j.in != nil

	var (
		wg       sync.WaitGroup
		fallback fallbackExtractor
	)
	j.stats.RoundHaloBytes = make([]int, t)
	j.stats.RoundGhostNodes = make([]int, t)
	wg.Add(p)
	for sh := 0; sh < p; sh++ {
		go func(sh int) {
			defer wg.Done()
			c := counters{roundBytes: make([]int, t), roundGhosts: make([]int, t)}

			// Send loop: per round, encode and transmit this shard's due
			// rings. Channels are buffered for every copy a link can carry,
			// so sends never block and the rounds need no barrier — halo data
			// is never relayed, so there is no transitive dependency between
			// rounds.
			encDicts := make([]map[graph.Label]int, len(outLinks[sh]))
			for i := range encDicts {
				encDicts[i] = make(map[graph.Label]int)
			}
			for round := 0; round < t; round++ {
				for li, l := range outLinks[sh] {
					for _, snd := range l.sends {
						if snd.ring.round != round {
							continue
						}
						payload := encodeHaloRing(j, encDicts[li], snd.ring, withIDs)
						for k := 0; k < snd.copies; k++ {
							l.ch <- haloMsg{round: round, payload: payload}
							c.messages++
							c.units += len(snd.ring.nodes)
							c.haloBytes += len(payload)
							c.roundBytes[round] += len(payload)
						}
					}
				}
			}

			ghosts, corrupt := importHalo(inLinks[sh], withIDs, &c)
			lost := degraded[sh] || corrupt

			// Assemble the shard-local sub-host: owned nodes plus imported
			// ghosts, monotone-renumbered, rows filtered to the local set.
			own := part.Owned(sh)
			sort.Slice(ghosts, func(i, k int) bool { return ghosts[i].node < ghosts[k].node })
			ext := make([]int32, 0, len(own)+len(ghosts))
			gi := 0
			for _, v := range own {
				for gi < len(ghosts) && ghosts[gi].node < v {
					ext = append(ext, ghosts[gi].node)
					gi++
				}
				ext = append(ext, v)
			}
			for ; gi < len(ghosts); gi++ {
				ext = append(ext, ghosts[gi].node)
			}
			local := buildLocalHost(j, ext, ghosts, withIDs)
			var x *graph.ViewExtractor
			if withIDs {
				x = graph.NewInstanceViewExtractor(local.instance)
			} else {
				x = graph.NewViewExtractor(local.labeled)
			}

			// Decide owned nodes in ascending host order. A degraded shard
			// routes its rim nodes through the shared full-host fallback
			// extractor; interior balls never leave the shard and stay local.
			var rim []int32 // the nodes that fall back: none unless degraded
			if lost {
				rim = rims[sh]
			}
			for _, v32 := range own {
				v := int(v32)
				if j.stop() {
					break
				}
				var body func(v int) Verdict
				if _, onRim := slices.BinarySearch(rim, v32); onRim {
					c.incomplete++
					body = func(v int) Verdict {
						c.evaluated++
						return fallback.decide(j, v)
					}
				} else {
					li, found := slices.BinarySearch(ext, v32)
					if !found {
						panic("engine: sharded-mp owned node missing from local host")
					}
					body = func(v int) Verdict {
						view := x.At(li, t)
						// Rebind Original from local-host indices to host
						// addresses (in place — extractor scratch).
						for i, w := range view.Original {
							view.Original[i] = int(ext[w])
						}
						return j.cachedVerdict(&c, view, v)
					}
				}
				verdict, ok := j.guarded(&c, v, body)
				j.commit(v, verdict, ok)
			}
			j.merge(&c)
		}(sh)
	}
	wg.Wait()
}

// importHalo drains a shard's incoming links and decodes their rings into
// ghost records, tallying them into c. Unique rings decode in
// ascending-round order per link, which is exactly the order the sender
// grew its label dictionary in, so the per-link dictionaries stay in sync;
// lost rings were never encoded and cannot desynchronise them. A ring that
// fails to decode is lost like a dropped one, and so is the rest of its
// link, since later rings may refer to dictionary entries it failed to
// add; corrupt reports that this happened.
func importHalo(links []*haloLink, withIDs bool, c *counters) (ghosts []ghostRec, corrupt bool) {
	for _, l := range links {
		byRound := make(map[int][]byte, len(l.sends))
		for got := 0; got < l.expect; got++ {
			m := <-l.ch
			if _, dup := byRound[m.round]; !dup {
				byRound[m.round] = m.payload
			}
		}
		var dict []graph.Label
		for _, snd := range l.sends {
			payload, ok := byRound[snd.ring.round]
			if !ok {
				panic("engine: sharded-mp link drained but ring missing")
			}
			before := len(ghosts)
			var err error
			if ghosts, dict, err = decodeHaloRing(payload, dict, withIDs, ghosts); err != nil {
				corrupt = true
				break
			}
			c.ghosts += len(ghosts) - before
			c.roundGhosts[snd.ring.round] += len(ghosts) - before
		}
	}
	return ghosts, corrupt
}

// ghostRec is one imported halo node: its host address, label, optional
// identifier, and full host adjacency row.
type ghostRec struct {
	node  int32
	label graph.Label
	id    int
	row   []int32
}

// localHost is a shard's assembled sub-host.
type localHost struct {
	labeled  *graph.Labeled
	instance *graph.Instance
}

// buildLocalHost assembles the monotone-renumbered sub-host over ext (owned
// ∪ ghosts, ascending). Rows come from the host CSR for owned nodes and
// from the imported records for ghosts, each filtered to ext — references
// outside the local set are provably outside every owned radius-t ball.
func buildLocalHost(j *job, ext []int32, ghosts []ghostRec, withIDs bool) localHost {
	k := len(ext)
	offsets := make([]int32, k+1)
	nbrs := make([]int32, 0)
	labels := make([]graph.Label, k)
	var ids []int
	if withIDs {
		ids = make([]int, k)
	}
	gi := 0
	for i, v := range ext {
		var row []int32
		if gi < len(ghosts) && ghosts[gi].node == v {
			rec := &ghosts[gi]
			row = rec.row
			labels[i] = rec.label
			if withIDs {
				ids[i] = rec.id
			}
			gi++
		} else {
			row = j.l.G.Neighbors(int(v))
			labels[i] = j.l.Labels[v]
			if withIDs {
				ids[i] = j.in.IDs[v]
			}
		}
		for _, u := range row {
			if li, ok := slices.BinarySearch(ext, u); ok {
				nbrs = append(nbrs, int32(li))
			}
		}
		offsets[i+1] = int32(len(nbrs))
	}
	g := graph.BuildCSR(offsets, func(dst []int32) { copy(dst, nbrs) })
	l := graph.NewLabeled(g, labels)
	h := localHost{labeled: l}
	if withIDs {
		// Identifiers are pairwise distinct host-wide, hence on the subset.
		h.instance = &graph.Instance{Labeled: l, IDs: ids}
	}
	return h
}

// encodeHaloRing serialises one ring for a link. Format, all varints:
//
//	round, count,
//	then per node (ascending): id gap (+1 from the previous id, so every
//	gap is >= 1), label back-reference (index+1 into the link's running
//	dictionary, or 0 followed by length+bytes for a first occurrence,
//	which also appends it to the dictionary), the identifier when the
//	evaluation carries them, then the full host row as degree followed by
//	a signed first-neighbour offset from the node id and unsigned gaps.
//
// The dictionary persists across the link's rings — that is the cross-round
// label delta; the node-disjoint rings are the adjacency delta (a node's
// row ships exactly once per link, in the round its ring is due).
func encodeHaloRing(j *job, dict map[graph.Label]int, ring haloRing, withIDs bool) []byte {
	buf := binary.AppendUvarint(nil, uint64(ring.round))
	buf = binary.AppendUvarint(buf, uint64(len(ring.nodes)))
	prev := int32(-1)
	for _, v := range ring.nodes {
		buf = binary.AppendUvarint(buf, uint64(v-prev))
		prev = v
		lab := j.l.Labels[v]
		if idx, ok := dict[lab]; ok {
			buf = binary.AppendUvarint(buf, uint64(idx+1))
		} else {
			buf = binary.AppendUvarint(buf, 0)
			buf = binary.AppendUvarint(buf, uint64(len(lab)))
			buf = append(buf, lab...)
			dict[lab] = len(dict)
		}
		if withIDs {
			buf = binary.AppendUvarint(buf, uint64(j.in.IDs[v]))
		}
		row := j.l.G.Neighbors(int(v))
		buf = binary.AppendUvarint(buf, uint64(len(row)))
		rprev := v
		for ri, u := range row {
			if ri == 0 {
				buf = binary.AppendVarint(buf, int64(u)-int64(v))
			} else {
				buf = binary.AppendUvarint(buf, uint64(u-rprev))
			}
			rprev = u
		}
	}
	return buf
}

// decodeHaloRing is encodeHaloRing's inverse, appending the decoded records
// to out and the first-occurrence labels to the link dictionary. A payload
// it cannot decode — a truncated or overlong varint, a back-reference
// outside the dictionary, a node count, label length or row degree longer
// than the rest of the payload, or trailing bytes — yields an error and out
// and dict as they were passed in, so no allocation is sized from wire data
// beyond the payload.
func decodeHaloRing(payload []byte, dict []graph.Label, withIDs bool, out []ghostRec) ([]ghostRec, []graph.Label, error) {
	records, words := len(out), len(dict)
	pos := 0
	var err error
	fail := func(format string, args ...any) {
		if err == nil {
			err = fmt.Errorf("engine: corrupt halo ring at byte %d: "+format, append([]any{pos}, args...)...)
		}
	}
	// took consumes a varint of n bytes, as binary.Uvarint or Varint
	// reported it. After the first error it consumes nothing, and every
	// read returns 0.
	took := func(n int) bool {
		if n <= 0 {
			fail("truncated or overlong varint")
		}
		if err != nil {
			return false
		}
		pos += n
		return true
	}
	next := func() uint64 {
		if x, n := binary.Uvarint(payload[pos:]); took(n) {
			return x
		}
		return 0
	}
	nextSigned := func() int64 {
		if x, n := binary.Varint(payload[pos:]); took(n) {
			return x
		}
		return 0
	}
	// length reads a count of items that take at least one byte each.
	length := func(what string) int {
		x := next()
		if x > uint64(len(payload)-pos) {
			fail("%s %d longer than the rest of the ring", what, x)
			return 0
		}
		return int(x)
	}
	_ = next() // round (carried in haloMsg too; kept for self-containment)
	count := length("node count")
	prev := int32(-1)
	for i := 0; i < count && err == nil; i++ {
		v := prev + int32(next())
		prev = v
		var lab graph.Label
		if ref := next(); ref > uint64(len(dict)) {
			fail("label back-reference %d outside a dictionary of %d", ref, len(dict))
		} else if ref > 0 {
			lab = dict[ref-1]
		} else if n := length("label length"); err == nil {
			lab = graph.Label(payload[pos : pos+n])
			pos += n
			dict = append(dict, lab)
		}
		rec := ghostRec{node: v, label: lab}
		if withIDs {
			rec.id = int(next())
		}
		deg := length("row degree")
		rec.row = make([]int32, deg)
		rprev := v
		for ri := 0; ri < deg; ri++ {
			if ri == 0 {
				rprev = v + int32(nextSigned())
			} else {
				rprev += int32(next())
			}
			rec.row[ri] = rprev
		}
		out = append(out, rec)
	}
	if err == nil && pos != len(payload) {
		fail("%d trailing bytes", len(payload)-pos)
	}
	if err != nil {
		return out[:records], dict[:words], err
	}
	return out, dict, nil
}
