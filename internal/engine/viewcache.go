package engine

import (
	"bytes"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/graph"
)

// ViewCache is the engine's sharded, concurrency-safe verdict cache: one
// verdict per distinct canonical view code per (decider name, horizon). The
// engine creates a private one per evaluation when Options.Dedup is set; a
// caller that evaluates a family of instances (experiment sweeps, repeated
// localsim runs, the halting instance family) can create one ViewCache and
// pass it through Options.Cache so later evaluations reuse verdicts decided
// in earlier ones — structured instance families share most of their views.
//
// Keys are the 64-bit fingerprint of the view's canonical code; the full
// byte code is stored alongside the verdict and compared on every lookup, so
// a fingerprint collision degrades to an extra comparison, never to a wrong
// verdict. Shards are selected by fingerprint, giving lock-striped access
// with a single critical section per lookup-or-insert (the fix for the
// seed-era double lock acquisition per miss).
//
// Every cache has one layout and one admission rule. It carries a byte
// budget — the one handed to NewBoundedViewCache, or 1 GiB for
// NewViewCache — and keeps each shard's entries in a slot arena. Every
// entry is byte-accounted (code bytes + decider name + a fixed per-entry
// overhead) and a per-shard CLOCK sweep evicts cold entries to admit new
// ones, so a resident service can keep one cache alive for weeks without
// unbounded growth. Eviction is an accelerator decision, never a soundness
// one — an evicted verdict is recomputed on the next miss.
//
// Soundness: sharing a verdict across evaluations assumes (a) the decider is
// a deterministic function of the view's isomorphism class — the LOCAL
// model's contract for Id-oblivious deciders — and (b) a decider name
// uniquely identifies one decide function for the cache's lifetime. The
// engine enforces the conditions it can see (identifier-carrying and
// randomized evaluations never touch the cache); the naming discipline is
// the caller's.
type ViewCache struct {
	shards [cacheShardCount]cacheShard

	// capShard is each shard's slice of the total byte budget.
	capShard int64

	// persist, when set, is invoked after each canonical-layer insert —
	// the write-behind hook the persistent verdict store attaches to. See
	// SetPersist.
	persist PersistFunc
	// load, when set, is asked for a verdict on each canonical miss before
	// the decider runs — the read-through hook the persistent verdict store
	// attaches to. See SetLoad.
	load LoadFunc

	// hits/misses/loaded/rejects/evictions are the observability counters
	// behind Stats(): verdicts served from the cache, verdicts the cache had
	// to compute, verdicts the load hook supplied, entries discarded by the
	// integrity guard, and entries evicted by the capacity CLOCK. Atomic so
	// readers never block the striped shard locks.
	hits      atomic.Int64
	misses    atomic.Int64
	loaded    atomic.Int64
	rejects   atomic.Int64
	evictions atomic.Int64
}

// PersistFunc is the write-behind persistence hook: called once per fresh
// canonical verdict insert with the cache-owned copy of the code bytes. The
// callee must treat code as read-only and MUST NOT block — the hook runs on
// the eval hot path (outside the shard lock); a persistent store enqueues to
// a bounded queue and drops on overflow rather than stalling evaluation.
type PersistFunc func(decider string, horizon int, code []byte, verdict Verdict)

// SetPersist attaches the write-behind persistence hook. It must be called
// before the cache is shared across goroutines (wire-up time, not serving
// time); raw-layer entries are process-local accelerators and are never
// persisted.
func (c *ViewCache) SetPersist(fn PersistFunc) { c.persist = fn }

// LoadFunc is the read-through hook: asked on a canonical miss, before the
// decider runs, for a verdict decided earlier — by a previous process, in
// the persistent store's case. It reports the verdict and whether it has
// one. The hook runs inside the miss's shard critical section, so it MUST
// NOT block on I/O and MUST NOT call back into the cache; code is valid only
// for the call. The store's Get qualifies: it takes only the store's map
// lock, and no store path takes a shard lock, so the lock order is shard
// lock, then store lock.
type LoadFunc func(decider string, horizon int, code []byte) (verdict Verdict, ok bool)

// SetLoad attaches the read-through hook. Like SetPersist it must be called
// at wire-up time, before the cache is shared across goroutines. A verdict
// the hook supplies is stored like any insert (when the shard has room),
// counted in CacheStats.Loaded, and never handed to the persist hook, so a
// store's verdicts do not echo back into it.
func (c *ViewCache) SetLoad(fn LoadFunc) { c.load = fn }

// CacheStats is a point-in-time snapshot of a ViewCache's counters.
type CacheStats struct {
	// Hits counts lookups served from the cache (raw or canonical layer).
	Hits int64
	// Misses counts lookups that had to compute the verdict.
	Misses int64
	// Loaded counts canonical misses the load hook answered (see SetLoad):
	// verdicts read through from a persistent store instead of computed.
	// They count as neither Hits nor Misses.
	Loaded int64
	// Rejects counts entries discarded by the integrity guard: stored code
	// bytes that no longer hash to their bucket fingerprint (corruption).
	// Each reject degrades to a miss, never to a wrong verdict.
	Rejects int64
	// Evictions counts entries (canonical and raw) evicted by the byte-
	// capacity CLOCK.
	Evictions int64
	// Entries is the cache's canonical-verdict entry count (Len).
	Entries int
	// RawEntries is the first-level raw-structure entry count (an
	// accelerator layer, not counted by Len).
	RawEntries int
	// Bytes is the accounted size of all live entries across both layers:
	// per entry its code bytes, its decider name and a fixed charge for
	// its arena slot, map slot and index slice. It is what the cache
	// charges against Capacity.
	Bytes int64
	// Capacity is the cache's total byte budget.
	Capacity int64
}

// Stats snapshots the cache's counters, entry counts and byte accounting.
// The counters accumulate across every evaluation sharing the cache;
// resident services (cmd/decided's /statsz, localsim -summary) read them for
// observability.
func (c *ViewCache) Stats() CacheStats {
	st := CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Loaded:    c.loaded.Load(),
		Rejects:   c.rejects.Load(),
		Evictions: c.evictions.Load(),
		Capacity:  c.capShard * cacheShardCount,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += s.entries
		st.RawEntries += s.rawEntries
		st.Bytes += s.bytes
		s.mu.Unlock()
	}
	return st
}

// cacheShardCount is a power of two so shard selection is a mask. 64 shards
// keep worker collisions rare at any plausible GOMAXPROCS.
const cacheShardCount = 64

// defaultCacheBytes is NewViewCache's budget: room for 2^15 entries per
// shard and layer (2 layers × 64 shards) at the minimum charge of 256 B per
// entry. No workload that builds a NewViewCache comes near it.
const defaultCacheBytes = 1 << 30

// entryOverheadBytes is the fixed accounting charge per cache entry on top
// of its variable bytes (code + decider name): what an entry really costs
// in live heap besides its code bytes, derived from the layout:
//
//   - two arena slots of one cacheEntry (80 B each): the arena grows by
//     doubling, so right after a growth it holds two slots per entry;
//   - one map slot, a cacheKey (40 B) and a []int32 header (24 B), at the
//     swiss map's maximum load of 7/8: 8/7 of a slot;
//   - the per-key index slice behind that header: one int32 in an 8 B
//     allocation;
//   - up to 15 B of allocator size-class rounding on the cache's copy of
//     the code.
//
// That is 256 B. Measured at the first eviction of 1–64 MiB caches filled
// with distinct 8–256-byte codes, the fixed part is 193–285 B per entry:
// the arena and the map tables double at different entry counts, so their
// slack seldom peaks together. Live-heap growth stayed within the
// configured capacity in 59 of those 60 configurations and reached 1.04x
// it in the one where both had just doubled
// (TestBoundedCacheBudgetBoundsLiveHeap checks a 16 MiB cache). The charge
// does not cover tombstones: under sustained eviction a map keeps the
// slots of deleted keys until its table next grows, which has measured up
// to 1.4x the capacity after churning four times the cache's entries.
const entryOverheadBytes = int64(2*unsafe.Sizeof(cacheEntry{}) +
	(unsafe.Sizeof(cacheKey{})+unsafe.Sizeof([]int32(nil)))*8/7 + 8 + 15)

// cacheShard is one lock stripe. The map m holds, per key, the indices of
// its entries in the slots arena: the arena gives the CLOCK eviction sweep a
// flat iteration target (map iteration order is neither stable nor
// resumable) and recycles slots through a free list so steady-state
// eviction allocates nothing.
type cacheShard struct {
	mu    sync.Mutex
	m     map[cacheKey][]int32 // indices into slots
	slots []cacheEntry
	free  []int32
	hand  int   // CLOCK hand: next slot the eviction sweep examines
	bytes int64 // accounted bytes of all live entries
	// entries counts live canonical entries; rawEntries counts first-level
	// raw-structure entries. Both layers share the shard's byte budget and
	// its CLOCK. Raw entries are an accelerator: not reported by Len.
	entries    int
	rawEntries int
}

// cacheKey scopes a verdict to one decider and horizon, so one cache can be
// shared across different deciders and radii without cross-talk. raw marks
// the first-level raw-structure namespace: raw codes and canonical codes are
// different encodings of different equivalence relations, so their entries
// must never be compared against each other even under a fingerprint
// collision.
type cacheKey struct {
	decider string
	horizon int
	fp      uint64
	raw     bool
}

// cacheEntry is one cached verdict, a slot of its shard's arena. live
// distinguishes occupied slots from free-listed ones; ref is the CLOCK
// reference bit, set on every hit and cleared by the sweep, so an entry
// survives one full hand rotation after its last hit before becoming an
// eviction candidate.
type cacheEntry struct {
	key     cacheKey
	code    []byte // full code bytes (canonical or raw): collision verification
	sum     uint64 // hash of code at insert time: the integrity guard's reference
	verdict Verdict
	live    bool
	ref     bool
}

// entryBytes is the accounting size of an entry under a key.
func entryBytes(key cacheKey, code []byte) int64 {
	return int64(len(code)) + int64(len(key.decider)) + entryOverheadBytes
}

// NewViewCache returns an empty cache ready for concurrent use, under the
// default budget of defaultCacheBytes (1 GiB): NewBoundedViewCache for
// callers that have no budget of their own to set.
func NewViewCache() *ViewCache { return NewBoundedViewCache(defaultCacheBytes) }

// NewBoundedViewCache returns an empty cache with a total byte budget:
// entries are byte-accounted and a per-shard CLOCK sweep evicts cold entries
// once the budget is reached, so the accounted size never exceeds capBytes.
// The budget is split evenly across the 64 shards; a capBytes smaller than
// 64 × one entry's footprint admits nothing (correct, if useless). A
// capBytes <= 0 panics — use NewViewCache for the default budget.
func NewBoundedViewCache(capBytes int64) *ViewCache {
	if capBytes <= 0 {
		panic("engine: NewBoundedViewCache needs a positive byte capacity")
	}
	c := &ViewCache{capShard: capBytes / cacheShardCount}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey][]int32)
	}
	return c
}

// Len returns the total number of cached canonical verdicts across all
// shards.
func (c *ViewCache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += s.entries
		s.mu.Unlock()
	}
	return total
}

// shardFor selects the lock stripe of a fingerprint.
func (c *ViewCache) shardFor(fp uint64) *cacheShard {
	return &c.shards[fp&(cacheShardCount-1)]
}

// findVerified scans the key's entries for an exact byte match, evicting any
// entry whose stored bytes no longer hash to their recorded sum (the
// integrity guard: a corrupted entry becomes a counted reject and a
// recompute, never a poisoned verdict). A match sets the CLOCK reference
// bit. Callers hold the shard lock.
func (c *ViewCache) findVerified(s *cacheShard, key cacheKey, code []byte) (Verdict, bool) {
	idxs := s.m[key]
	for i := 0; i < len(idxs); {
		e := &s.slots[idxs[i]]
		if graph.Fingerprint(e.code) != e.sum {
			c.dropAt(s, key, i)
			idxs = s.m[key]
			c.rejects.Add(1)
			continue
		}
		if bytes.Equal(e.code, code) {
			e.ref = true
			return e.verdict, true
		}
		i++
	}
	return No, false
}

// dropAt removes the entry at position pos of key's index slice, releasing
// its slot and its byte accounting. Callers hold the shard lock and count
// the removal (reject or eviction) themselves.
func (c *ViewCache) dropAt(s *cacheShard, key cacheKey, pos int) {
	idxs := s.m[key]
	slot := idxs[pos]
	idxs[pos] = idxs[len(idxs)-1]
	idxs = idxs[:len(idxs)-1]
	if len(idxs) == 0 {
		delete(s.m, key)
	} else {
		s.m[key] = idxs
	}
	e := &s.slots[slot]
	s.bytes -= entryBytes(key, e.code)
	if key.raw {
		s.rawEntries--
	} else {
		s.entries--
	}
	*e = cacheEntry{}
	s.free = append(s.free, slot)
}

// evictSlot is dropAt addressed by slot rather than key position — the CLOCK
// sweep's removal path. Callers hold the shard lock.
func (c *ViewCache) evictSlot(s *cacheShard, slot int32) {
	e := &s.slots[slot]
	for pos, ix := range s.m[e.key] {
		if ix == slot {
			c.dropAt(s, e.key, pos)
			c.evictions.Add(1)
			return
		}
	}
}

// makeRoom decides whether an entry of the given size may be inserted,
// evicting via the CLOCK sweep until it fits the shard's budget. Callers
// hold the shard lock.
func (c *ViewCache) makeRoom(s *cacheShard, need int64) bool {
	if need > c.capShard {
		return false // larger than a whole shard's budget: decide directly
	}
	// CLOCK: advance the hand, clearing reference bits; evict the first
	// unreferenced live entry, repeating until the new entry fits. Two full
	// rotations suffice (the first clears every bit, the second evicts), so
	// the scan guard below can only fire on accounting corruption.
	scanned, limit := 0, 2*len(s.slots)+2
	for s.bytes+need > c.capShard {
		if s.entries+s.rawEntries == 0 {
			return s.bytes+need <= c.capShard
		}
		if s.hand >= len(s.slots) {
			s.hand = 0
		}
		e := &s.slots[s.hand]
		if e.live {
			if e.ref {
				e.ref = false
			} else {
				c.evictSlot(s, int32(s.hand))
			}
		}
		s.hand++
		if scanned++; scanned > limit {
			return false
		}
	}
	return true
}

// storeEntry inserts an owned entry, assuming makeRoom approved it. Callers
// hold the shard lock.
func (c *ViewCache) storeEntry(s *cacheShard, key cacheKey, owned []byte, verdict Verdict) {
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		if len(s.slots) == cap(s.slots) {
			// Grow the arena by doubling from 4 slots. append would grow a
			// large arena by 1.25x, re-copying entries (which carry pointers:
			// write barriers and GC scan work) more often on the cold-sweep
			// path the miss benchmark gates. A small first step keeps a
			// cache with a few entries per shard small; the engine builds a
			// private one for every Dedup evaluation without a Cache.
			grown := make([]cacheEntry, len(s.slots), max(4, 2*cap(s.slots)))
			copy(grown, s.slots)
			s.slots = grown
		}
		s.slots = append(s.slots, cacheEntry{})
		slot = int32(len(s.slots) - 1)
	}
	s.slots[slot] = cacheEntry{
		key:     key,
		code:    owned,
		sum:     graph.Fingerprint(owned),
		verdict: verdict,
		live:    true,
	}
	s.m[key] = append(s.m[key], slot)
	s.bytes += entryBytes(key, owned)
	if key.raw {
		s.rawEntries++
	} else {
		s.entries++
	}
}

// lookupOrCompute returns the verdict for code under (decider, horizon),
// loading it through the load hook or else computing it, and inserting it,
// on a miss. computed reports whether this call ran compute; stored whether
// the computed result entered the cache (false when the shard declines the
// insert — an entry larger than the shard's whole budget — and for a loaded
// verdict, which was decided before). The whole lookup-or-insert is one
// critical section on the code's shard: on a miss the load hook and the
// decider run under the shard lock, which serialises same-shard misses but
// removes the second lock acquisition and the duplicated decide the
// seed-era cache allowed. In the dedup regime misses are rare by
// construction (that is the regime's point), and the fingerprint striping
// keeps first-run miss storms spread over the shards.
//
// code.Bytes is cloned before compute runs: the bytes alias the caller's
// CodeWorkspace, and a decider that computes further codes (benchmarks and
// code-hashing deciders do) rewrites that buffer mid-compute.
func (c *ViewCache) lookupOrCompute(decider string, horizon int, code graph.Code,
	compute func() Verdict) (verdict Verdict, computed, stored bool) {
	s := c.shardFor(code.Fingerprint)
	key := cacheKey{decider: decider, horizon: horizon, fp: code.Fingerprint}
	s.mu.Lock()
	if v, ok := c.findVerified(s, key, code.Bytes); ok {
		s.mu.Unlock()
		c.hits.Add(1)
		return v, false, false
	}
	if c.load != nil {
		if v, ok := c.load(decider, horizon, code.Bytes); ok {
			owned := append([]byte(nil), code.Bytes...)
			if c.makeRoom(s, entryBytes(key, owned)) {
				c.storeEntry(s, key, owned, v)
			}
			s.mu.Unlock()
			c.loaded.Add(1)
			return v, false, false
		}
	}
	c.misses.Add(1)
	owned := append([]byte(nil), code.Bytes...)
	if !c.makeRoom(s, entryBytes(key, owned)) {
		s.mu.Unlock()
		return compute(), true, false
	}
	verdict = compute()
	c.storeEntry(s, key, owned, verdict)
	s.mu.Unlock()
	if c.persist != nil {
		c.persist(decider, horizon, owned, verdict)
	}
	return verdict, true, true
}

// lookupRaw consults the first-level raw-structure layer: verdicts keyed by
// the view's exact extracted byte encoding (graph.View.RawCode). A hit means
// a byte-identical rooted labelled view was decided before — sound because
// byte-identical views are isomorphic a fortiori. Misses are expected for
// views whose structure repeats only up to isomorphism; callers fall back to
// the canonical-code layer.
func (c *ViewCache) lookupRaw(decider string, horizon int, raw graph.Code) (Verdict, bool) {
	s := c.shardFor(raw.Fingerprint)
	key := cacheKey{decider: decider, horizon: horizon, fp: raw.Fingerprint, raw: true}
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := c.findVerified(s, key, raw.Bytes); ok {
		c.hits.Add(1)
		return v, true
	}
	// A raw miss is not counted: the caller falls through to the canonical
	// layer, whose lookup tallies the hit or miss for the whole decision.
	return No, false
}

// storeRaw records a verdict under a view's raw-structure key so future
// byte-identical extractions skip the canonical code entirely. Raw entries
// share the byte budget and the CLOCK with canonical ones; an entry larger
// than a shard's budget is not stored, and the canonical layer still
// serves.
func (c *ViewCache) storeRaw(decider string, horizon int, raw graph.Code, verdict Verdict) {
	s := c.shardFor(raw.Fingerprint)
	key := cacheKey{decider: decider, horizon: horizon, fp: raw.Fingerprint, raw: true}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, ix := range s.m[key] {
		if bytes.Equal(s.slots[ix].code, raw.Bytes) {
			return // another worker stored it first
		}
	}
	owned := append([]byte(nil), raw.Bytes...)
	if !c.makeRoom(s, entryBytes(key, owned)) {
		return
	}
	c.storeEntry(s, key, owned, verdict)
}
