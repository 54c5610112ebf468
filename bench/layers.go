package main

import (
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
)

// A host's replay visits at most replayChunks × replayChunk views: every
// node of a small host, otherwise evenly spaced runs of consecutive nodes,
// which keep the engine's index-order memory locality.
const (
	replayChunks = 8
	replayChunk  = 2_500
)

// replayNodes are the nodes a replay of an n-node host visits.
func replayNodes(n int) []int {
	nodes := make([]int, 0, min(n, replayChunks*replayChunk))
	if n <= replayChunks*replayChunk {
		for v := 0; v < n; v++ {
			nodes = append(nodes, v)
		}
		return nodes
	}
	for c := 0; c < replayChunks; c++ {
		start := c * (n - replayChunk) / (replayChunks - 1)
		for v := start; v < start+replayChunk; v++ {
			nodes = append(nodes, v)
		}
	}
	return nodes
}

// viewCost is the graph layer's cost on one host, from a replay of the
// engine's per-node call sequence: ViewExtractor.At for every node, then —
// when the evaluation uses a cache — View.RawCode and View.CanonCode. (The
// engine skips the codes of views too large to cache; how many views it
// codes is read from the cache's lookup count, not assumed here.)
type viewCost struct {
	host *graph.Labeled
	// views is the number of views replayed; coded of them went through the
	// codes, fast and generic by canonical-code tier.
	views, coded, fast, generic int
	// Totals over the replayed views, in nanoseconds.
	extractNs, rawNs, fastNs, genericNs float64
}

// replayHost replays the graph layer on one host at the given horizon.
// Extraction and raw-key time come from whole passes (the raw-key pass minus
// the extraction pass); canonical codes are timed per call, net of the
// timer's own cost, so each can be booked to its tier.
func replayHost(l *graph.Labeled, horizon int, cached bool, clockNs float64) viewCost {
	c := viewCost{host: l}
	nodes := replayNodes(l.N())
	x := graph.NewViewExtractor(l)
	pass := func(raw bool) float64 {
		begin := time.Now()
		for _, v := range nodes {
			view := x.At(v, horizon)
			if raw {
				view.RawCode()
			}
		}
		return float64(time.Since(begin).Nanoseconds())
	}
	// The minimum of a few passes is the least disturbed reading.
	extract, withRaw := pass(false), pass(cached)
	for i := 0; i < 2; i++ {
		extract = min(extract, pass(false))
		withRaw = min(withRaw, pass(cached))
	}
	for _, v := range nodes {
		c.views++
		view := x.At(v, horizon)
		if !cached {
			continue
		}
		c.coded++
		begin := time.Now()
		code := view.CanonCode()
		d := max(float64(time.Since(begin).Nanoseconds())-clockNs, 0)
		// The fast-path tier writes its own code namespace: a leading zero
		// byte followed by the shape encoding.
		if len(code.Bytes) > 1 && code.Bytes[0] == 0x00 {
			c.fast++
			c.fastNs += d
		} else {
			c.generic++
			c.genericNs += d
		}
	}
	c.extractNs = extract
	if cached {
		c.rawNs = max(withRaw-extract, 0)
	}
	return c
}

// perView are the host's mean per-view costs.
func (c viewCost) extractPerView() float64 { return c.extractNs / float64(max(c.views, 1)) }
func (c viewCost) rawPerView() float64     { return c.rawNs / float64(max(c.coded, 1)) }
func (c viewCost) canonPerView() float64 {
	return (c.fastNs + c.genericNs) / float64(max(c.fast+c.generic, 1))
}

// reportGraphLayer books the replayed per-view costs. Hosts are weighted by
// their node count, as every host is evaluated equally often.
func reportGraphLayer(r *report, costs []viewCost) {
	var (
		nodes, extract                   float64
		coded, raw                       float64
		fast, generic, fastNs, genericNs float64
		views                            int
	)
	for _, c := range costs {
		w := float64(c.host.N()) / float64(max(c.views, 1))
		views += c.views
		nodes += w * float64(c.views)
		extract += w * c.extractNs
		coded += w * float64(c.coded)
		raw += w * c.rawNs
		fast += w * float64(c.fast)
		generic += w * float64(c.generic)
		fastNs += w * c.fastNs
		genericNs += w * c.genericNs
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	r.set("graph.extract_ns_per_view", ratio(extract, nodes), views)
	r.set("graph.rawcode_ns_per_view", ratio(raw, coded), views)
	r.set("graph.canon_fast_ns_per_view", ratio(fastNs, fast), views)
	r.set("graph.canon_generic_ns_per_view", ratio(genericNs, generic), views)
	r.set("graph.canon_fast_share", ratio(fast, fast+generic), views)
}

// cacheDelta accumulates the movement of ViewCache counters over measured
// evaluations.
type cacheDelta struct {
	hits, misses, evictions int64
	// entries and rawEntries are the net growth of the canonical and the
	// raw layer.
	entries, rawEntries int64
	// bytes is the accounted cache size after the last evaluation.
	bytes int64
	evals int
}

// lookups is the number of cached decisions: one hit or one miss each.
func (d *cacheDelta) lookups() int64 { return d.hits + d.misses }

func (d *cacheDelta) add(before, after engine.CacheStats) {
	d.hits += after.Hits - before.Hits
	d.misses += after.Misses - before.Misses
	d.evictions += after.Evictions - before.Evictions
	d.entries += int64(after.Entries - before.Entries)
	d.rawEntries += int64(after.RawEntries - before.RawEntries)
	d.bytes = after.Bytes
	d.evals++
}

// rawMisses derives the raw-layer misses, which CacheStats does not count:
// every canonical miss inserts one canonical entry and every raw miss one raw
// entry, so canonical evictions are misses minus canonical growth, the
// remaining evictions were raw entries, and raw misses are raw growth plus
// raw evictions. (An insert the cache declines makes this approximate; that
// happens only when one entry is larger than a whole shard's budget.)
func (d *cacheDelta) rawMisses() int64 {
	rawEvictions := max(d.evictions-(d.misses-d.entries), 0)
	return d.rawEntries + rawEvictions
}

// report books the cache outcome ratios over all lookups. CacheStats counts
// raw and canonical hits together; a raw miss goes on to the canonical layer,
// so canonical hits are the raw misses that did not miss there too.
func (d *cacheDelta) report(r *report) {
	lookups := d.lookups()
	if lookups == 0 {
		return
	}
	canonHits := min(max(d.rawMisses()-d.misses, 0), d.hits)
	r.set("engine.raw_hit_ratio", float64(d.hits-canonHits)/float64(lookups), d.evals)
	r.set("engine.canon_hit_ratio", float64(canonHits)/float64(lookups), d.evals)
	r.set("engine.miss_ratio", float64(d.misses)/float64(lookups), d.evals)
	r.set("engine.evictions", float64(d.evictions), d.evals)
	r.set("engine.cache_bytes", float64(d.bytes), d.evals)
}

// reportDecide books the wrapped deciders' cost over the traced window.
func reportDecide(r *report, tr *tracer, nodes int) {
	ns, calls := tr.decideTotals()
	if calls == 0 || nodes == 0 {
		return
	}
	r.set("engine.decide_ns_per_call", ns/float64(calls), int(calls))
	r.set("engine.decide_calls_per_node", float64(calls)/float64(nodes), int(calls))
}
