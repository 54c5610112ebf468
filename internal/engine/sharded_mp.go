package engine

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"runtime"
	"slices"

	"repro/internal/graph"
)

// This file is the sharded message-passing runtime: the host graph is
// partitioned into p shards (graph.Partition), each shard runs as one worker
// of the kernel's pool owning its slice of the instance — its nodes' CSR
// rows, its own assembler and extractor, and (through the fingerprint
// striping of the shared ViewCache) its working set of the 64 cache
// stripes — and the only data that ever crosses a shard boundary is the
// halo: the depth-t boundary ball each shard needs to complete the radius-t
// views of its rim nodes.
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
// After a single-threaded plan phase (partition, halos, ring schedule,
// fates), the run is two stages on the pool, one worker per shard. In the
// encode stage each shard serialises the rings of its out-links; after the
// pool's barrier, in the decide stage, each shard decodes its in-links'
// rings, builds its sub-host with the flooding runtime's assembler and
// decides its owned nodes.
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

// ShardedMP evaluates on a partition of the host into p shards, one pool
// worker each: the shards exchange delta-encoded halo (ghost-node) rings
// over per-shard-pair links, then decide their owned nodes on shard-local
// sub-hosts. p defaults to GOMAXPROCS; partitioning defaults to
// BFS-blocked.
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

// haloSend is a scheduled transmission after fate resolution. The sender's
// encode stage fills payload; the receiver's decide stage reads it.
type haloSend struct {
	ring    haloRing
	copies  int // 1 + duplicates
	payload []byte
}

// haloLink is one ordered shard pair's transmissions, ascending by round.
// Its plan is immutable once made; only the encode stage writes payloads.
type haloLink struct {
	sends []haloSend
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
	degraded := make([]bool, p) // some scheduled ring never arrives: the receiver degrades
	for from := 0; from < p; from++ {
		if ringNodes[from] == nil {
			continue
		}
		for to := 0; to < p; to++ {
			var l haloLink
			for r, nodes := range ringNodes[from][to] {
				if len(nodes) == 0 {
					continue
				}
				fate := j.messageFate(r, from, to)
				if fate.Attempts > 1 {
					j.stats.Retransmits += fate.Attempts - 1
				}
				if !fate.Delivered {
					j.stats.Dropped++
					degraded[to] = true
					continue
				}
				if fate.Delay > 0 {
					j.stats.Delayed++
					if r+fate.Delay >= t {
						// Arrives after the protocol's last round: lost.
						degraded[to] = true
						continue
					}
				}
				j.stats.Duplicated += fate.Duplicates
				l.sends = append(l.sends, haloSend{ring: haloRing{round: r, nodes: nodes}, copies: 1 + fate.Duplicates})
			}
			if len(l.sends) > 0 {
				outLinks[from] = append(outLinks[from], &l)
				inLinks[to] = append(inLinks[to], &l)
			}
		}
	}
	withIDs := j.in != nil
	j.stats.RoundHaloBytes = make([]int, t)
	j.stats.RoundGhostNodes = make([]int, t)
	var stages pool
	stages.reset(p, p)

	// Encode stage: each shard serialises the rings of each of its
	// out-links in ascending round, the order the receiver decodes them in,
	// against the link's label dictionary. Every ring is encoded into the
	// worker's scratch, sized once for its largest ring, and stored at its
	// final size: one allocation per ring. Every copy counts as sent.
	stages.run(func(sh int) {
		c := counters{roundBytes: make([]int, t)}
		bound := 0
		for _, l := range outLinks[sh] {
			for _, snd := range l.sends {
				bound = max(bound, haloRingBound(j, snd.ring, withIDs))
			}
		}
		scratch := make([]byte, 0, bound)
		for _, l := range outLinks[sh] {
			dict := make(map[graph.Label]int)
			for i := range l.sends {
				snd := &l.sends[i]
				scratch = appendHaloRing(scratch[:0], j, dict, snd.ring, withIDs)
				snd.payload = bytes.Clone(scratch)
				c.messages += snd.copies
				c.units += snd.copies * len(snd.ring.nodes)
				c.haloBytes += snd.copies * len(snd.payload)
				c.roundBytes[snd.ring.round] += snd.copies * len(snd.payload)
			}
		}
		j.merge(&c)
	})

	// Decide stage, after the pool's barrier: each shard imports its ghosts,
	// assembles its sub-host (owned nodes plus ghosts, monotone-renumbered,
	// rows filtered to the local set) and decides its owned nodes in
	// ascending host order. A degraded shard routes its rim nodes through
	// the shared full-host fallback extractor; interior balls never leave
	// the shard and stay local.
	var fallback fallbackExtractor
	stages.run(func(sh int) {
		c := counters{roundGhosts: make([]int, t)}
		ghosts, corrupt := importHalo(inLinks[sh], withIDs, &c)
		slices.SortFunc(ghosts, func(a, b ghostRec) int { return cmp.Compare(a.node, b.node) })
		ghostNodes := make([]int32, len(ghosts))
		for i := range ghosts {
			ghostNodes[i] = ghosts[i].node
		}
		own := part.Owned(sh)
		ext := mergeKnowledge(nil, own, ghostNodes)
		var a assembler
		a.host(j, ext, ghosts)

		var rim []int32 // the nodes that fall back: none unless degraded
		if degraded[sh] || corrupt {
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
				li := a.local(v32)
				body = func(v int) Verdict { return j.cachedVerdict(&c, a.at(j, ext, li), v) }
			}
			verdict, ok := j.guarded(&c, v, body)
			j.commit(v, verdict, ok)
		}
		j.merge(&c)
	})
}

// importHalo decodes a shard's incoming links into ghost records, tallying
// them into c. Each link's rings decode in ascending round, exactly the
// order the sender grew its label dictionary in, so the per-link
// dictionaries stay in sync; lost rings were never encoded and cannot
// desynchronise them. A ring that fails to decode is lost like a dropped
// one, and so is the rest of its link, since later rings may refer to
// dictionary entries it failed to add; corrupt reports that this happened.
// The records are sized once, from the ring schedule, and each ring's rows
// share one allocation (see decodeHaloRing).
func importHalo(links []*haloLink, withIDs bool, c *counters) (ghosts []ghostRec, corrupt bool) {
	scheduled := 0
	for _, l := range links {
		for _, snd := range l.sends {
			scheduled += len(snd.ring.nodes)
		}
	}
	ghosts = make([]ghostRec, 0, scheduled)
	for _, l := range links {
		var dict []graph.Label
		for _, snd := range l.sends {
			before := len(ghosts)
			var err error
			if ghosts, dict, err = decodeHaloRing(snd.payload, dict, withIDs, ghosts); err != nil {
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
	return appendHaloRing(nil, j, dict, ring, withIDs)
}

// haloRingBound bounds the length of a ring's payload from its node count,
// labels and row lengths: a varint of a 32-bit quantity takes at most
// binary.MaxVarintLen32 bytes, the round, count and identifiers at most
// binary.MaxVarintLen64.
func haloRingBound(j *job, ring haloRing, withIDs bool) int {
	n := 2 * binary.MaxVarintLen64
	for _, v := range ring.nodes {
		// Id gap, label reference or marker and length, degree, first
		// neighbour, the label's bytes and the row's gaps.
		n += 4*binary.MaxVarintLen32 + len(j.l.Labels[v]) + binary.MaxVarintLen32*j.l.G.Degree(int(v))
		if withIDs {
			n += binary.MaxVarintLen64
		}
	}
	return n
}

// appendHaloRing appends encodeHaloRing's encoding of one ring to buf.
func appendHaloRing(buf []byte, j *job, dict map[graph.Label]int, ring haloRing, withIDs bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(ring.round))
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
// to out and the first-occurrence labels to the link dictionary. The ring's
// rows are decoded into one arena, allocated once after the node count and
// sized by the rest of the payload, which bounds their total length since
// every row entry takes at least one byte; each row is capped at its
// length, so no append to one row can reach the next. A payload it cannot
// decode — a truncated or overlong varint, a back-reference outside the
// dictionary, a node count, label length or row degree longer than the rest
// of the payload, or trailing bytes — yields an error and out and dict as
// they were passed in, so no allocation is sized from wire data beyond the
// payload.
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
	_ = next() // round (the link's schedule carries it too; kept for self-containment)
	count := length("node count")
	var arena []int32
	if count > 0 {
		arena = make([]int32, 0, len(payload)-pos)
	}
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
		// Every row entry read so far took a byte after the arena was sized,
		// and deg fits in the bytes left, so the row fits in the arena.
		deg := length("row degree")
		start := len(arena)
		arena = arena[:start+deg]
		rec.row = arena[start : start+deg : start+deg]
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
