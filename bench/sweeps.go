package main

import (
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/props"
	"repro/internal/tree"
)

// config is one evaluation of a round: a host, a decider, a scheduler and
// the cache it runs against.
type config struct {
	name  string
	host  *graph.Labeled
	dec   engine.Decider
	sched engine.Scheduler
	// cache returns the cache for one evaluation: a shared one, or a fresh
	// one per evaluation. Nil runs without the caller's cache (Dedup may still
	// give the evaluation a private one).
	cache func() *engine.ViewCache
	dedup bool
	ref   []engine.Verdict
}

func (c *config) options() engine.Options {
	opts := engine.Options{Scheduler: c.sched, Dedup: c.dedup}
	if c.cache != nil {
		opts.Cache = c.cache()
	}
	return opts
}

// evalRecord is what a traced round observed of one evaluation.
type evalRecord struct {
	cfg           *config
	wall          time.Duration
	out           engine.Outcome
	before, after engine.CacheStats
	decideNs      float64
}

// runRounds runs rounds over the configurations until the window is spent.
// One round — every configuration once — is one answer; its latency is the
// sum of its evaluations' wall times and its work the node verdicts they
// committed. Every evaluation is checked against its reference. A traced
// window also hands each evaluation to observe.
func runRounds(e *env, cfgs []*config, w *window, observe func(evalRecord)) {
	decs := make([]engine.Decider, len(cfgs))
	for i, c := range cfgs {
		decs[i] = w.tr.wrap(c.dec)
	}
	for w.more() {
		round := w.tr.begin("round", 0, 0)
		var took time.Duration
		nodes := 0
		for i, c := range cfgs {
			opts := c.options()
			var rec evalRecord
			if w.tr != nil && opts.Cache != nil {
				rec.before = opts.Cache.Stats()
			}
			decBefore, _ := w.tr.decideTotals()
			s := w.tr.begin("engine.EvalOblivious/"+c.name, round.id(), round.id())
			begin := time.Now()
			out := engine.EvalOblivious(decs[i], c.host, opts)
			d := time.Since(begin)
			s.end()
			took += d
			nodes += c.host.N()
			e.rep.check(sameVerdicts(out, c.ref))
			if w.tr != nil && observe != nil {
				if opts.Cache != nil {
					rec.after = opts.Cache.Stats()
				}
				decAfter, _ := w.tr.decideTotals()
				rec.cfg, rec.wall, rec.out, rec.decideNs = c, d, out, decAfter-decBefore
				observe(rec)
			}
		}
		round.end()
		w.record(took, float64(nodes))
	}
}

// withReferences fills each configuration's reference verdicts, computing
// each distinct (host, decider) pair once.
func withReferences(cfgs []*config) error {
	type key struct {
		host *graph.Labeled
		name string
		t    int
	}
	refs := map[key][]engine.Verdict{}
	for _, c := range cfgs {
		k := key{c.host, c.dec.Name, c.dec.Horizon}
		if _, ok := refs[k]; !ok {
			ref, err := reference(c.dec, c.host)
			if err != nil {
				return err
			}
			refs[k] = ref
		}
		c.ref = refs[k]
	}
	return nil
}

// sweepStats gathers what the traced window of a sweep observed.
type sweepStats struct {
	cache cacheDelta
	nodes int
	// seq and sharded hold wall times per host, for the sharded speed-up.
	seq, sharded map[*graph.Labeled][]float64
}

// reportSweepLayers runs the graph replay and books every layer metric a
// sweep exposes.
func reportSweepLayers(e *env, cfgs []*config, st *sweepStats, records []evalRecord) {
	costs := map[*graph.Labeled]viewCost{}
	var list []viewCost
	for _, c := range cfgs {
		if _, ok := costs[c.host]; ok {
			continue
		}
		vc := replayHost(c.host, c.dec.Horizon, c.cache != nil || c.dedup, e.tr.clockNs)
		costs[c.host] = vc
		list = append(list, vc)
	}
	reportGraphLayer(e.rep, list)

	// engine.self_share: the part of sequential evaluations' wall time that
	// neither the replayed graph layers nor decide explain. Every cache
	// lookup paid a raw code, and every raw miss a canonical one.
	seqWall, seqAccounted := 0.0, 0.0
	for _, rec := range records {
		if rec.cfg.sched != engine.Sequential {
			continue
		}
		vc := costs[rec.cfg.host]
		n := float64(rec.cfg.host.N())
		var moved cacheDelta
		moved.add(rec.before, rec.after)
		accounted := n*vc.extractPerView() + float64(moved.lookups())*vc.rawPerView() +
			float64(moved.rawMisses())*vc.canonPerView() + rec.decideNs
		seqWall += float64(rec.wall.Nanoseconds())
		seqAccounted += accounted
	}
	if seqWall > 0 {
		e.rep.set("engine.self_share", max(seqWall-seqAccounted, 0)/seqWall, len(records))
	}
	st.cache.report(e.rep)
	reportDecide(e.rep, e.tr, st.nodes)

	seqSum, shardSum := 0.0, 0.0
	for host, seq := range st.seq {
		if sh := st.sharded[host]; len(sh) > 0 {
			seqSum += median(seq)
			shardSum += median(sh)
		}
	}
	if shardSum > 0 {
		e.rep.set("engine.sharded_speedup", seqSum/shardSum, len(records))
	}
}

// runSweep measures a sweep workload: rounds over cfgs, then, when traced,
// the cache, decide, graph and scheduler layers.
func runSweep(e *env, cfgs []*config) error {
	if err := withReferences(cfgs); err != nil {
		return err
	}
	st := &sweepStats{seq: map[*graph.Labeled][]float64{}, sharded: map[*graph.Labeled][]float64{}}
	var records []evalRecord
	err := e.measure(func(w *window) error {
		var observe func(evalRecord)
		if w.tr != nil {
			observe = func(rec evalRecord) {
				records = append(records, rec)
				st.nodes += rec.cfg.host.N()
				if rec.cfg.cache != nil {
					st.cache.add(rec.before, rec.after)
				}
				ms := float64(rec.wall.Nanoseconds()) / 1e6
				if rec.cfg.sched == engine.Sequential {
					st.seq[rec.cfg.host] = append(st.seq[rec.cfg.host], ms)
				} else {
					st.sharded[rec.cfg.host] = append(st.sharded[rec.cfg.host], ms)
				}
			}
		}
		runRounds(e, cfgs, w, observe)
		return nil
	})
	if err != nil {
		return err
	}
	if e.traced {
		reportSweepLayers(e, cfgs, st, records)
	}
	return nil
}

// sweepHitInstances are the sweep_hit hosts: the pyramid h=9 under
// triangle-free and a randomly 3-coloured cycle under 3col, as decided serves
// them.
type sweepHitInstances struct {
	pyramid, cycle *graph.Labeled
}

func buildSweepHit(e *env) sweepHitInstances {
	h, n := 7, 20_000
	if e.tiny {
		h, n = 4, 2_000
	}
	return timeGraph(e, func() sweepHitInstances {
		return sweepHitInstances{
			pyramid: graph.UniformlyLabeled(tree.NewPyramid(h).G, ""),
			cycle:   graph.RandomLabels(graph.Cycle(n), []graph.Label{"0", "1", "2"}, subSeed(e.seed, "cycle-colours")),
		}
	})
}

var (
	triangleFree = local.EngineObliviousDecider(props.TriangleFreeVerifier())
	threeCol     = local.EngineObliviousDecider(props.ThreeColoringVerifier())
)

// runSweepHit: one shared unbounded cache, warmed during set-up, under both
// functional schedulers.
func runSweepHit(e *env) error {
	type state struct {
		in    sweepHitInstances
		cache *engine.ViewCache
	}
	s, err := setup(e, func() (state, error) {
		st := state{in: buildSweepHit(e), cache: engine.NewViewCache()}
		for _, warm := range []struct {
			dec engine.Decider
			l   *graph.Labeled
		}{{triangleFree, st.in.pyramid}, {threeCol, st.in.cycle}} {
			if out := engine.EvalOblivious(warm.dec, warm.l, engine.Options{Cache: st.cache}); out.Err != nil {
				return st, out.Err
			}
		}
		return st, nil
	}, nil)
	if err != nil {
		return err
	}
	e.in.labeled(s.in.pyramid)
	e.in.labeled(s.in.cycle)
	shared := func() *engine.ViewCache { return s.cache }
	var cfgs []*config
	for _, sched := range []engine.Scheduler{engine.Sequential, engine.Sharded} {
		cfgs = append(cfgs,
			&config{name: "pyramid/" + sched.Name(), host: s.in.pyramid, dec: triangleFree, sched: sched, cache: shared},
			&config{name: "cycle/" + sched.Name(), host: s.in.cycle, dec: threeCol, sched: sched, cache: shared})
	}
	return runSweep(e, cfgs)
}

// sweepMissInstances are the sweep_miss hosts, labelled from a two-letter
// alphabet so views are pairwise distinct.
type sweepMissInstances struct {
	hosts    []*graph.Labeled
	horizons []int
	names    []string
}

// missCacheBytes is the byte budget of each evaluation's fresh cache. The
// cycle's views fill about three quarters of it; the budget is split evenly
// over the cache's shards, and shards that draw more than their share evict,
// so the miss path includes eviction.
const missCacheBytes = 2 << 20

func buildSweepMiss(e *env) sweepMissInstances {
	cycleN, depth, side := 5_000, 11, 50
	if e.tiny {
		cycleN, depth, side = 500, 7, 12
	}
	return timeGraph(e, func() sweepMissInstances {
		return sweepMissInstances{
			hosts: []*graph.Labeled{
				graph.RandomLabels(graph.Cycle(cycleN), ab, subSeed(e.seed, "miss-cycle")),
				graph.RandomLabels(graph.CompleteBinaryTree(depth), ab, subSeed(e.seed, "miss-tree")),
				graph.RandomLabels(graph.Grid(side, side), ab, subSeed(e.seed, "miss-grid")),
			},
			horizons: []int{8, 4, 3},
			names:    []string{"cycle", "tree", "grid"},
		}
	})
}

// runSweepMiss: a fresh byte-bounded cache per evaluation, so every node
// takes the miss path, under both functional schedulers.
func runSweepMiss(e *env) error {
	in, err := setup(e, func() (sweepMissInstances, error) { return buildSweepMiss(e), nil }, nil)
	if err != nil {
		return err
	}
	for i, l := range in.hosts {
		e.in.labeled(l)
		e.in.ints(int64(in.horizons[i]))
	}
	fresh := func() *engine.ViewCache { return engine.NewBoundedViewCache(missCacheBytes) }
	var cfgs []*config
	for _, sched := range []engine.Scheduler{engine.Sequential, engine.Sharded} {
		for i, l := range in.hosts {
			cfgs = append(cfgs, &config{name: in.names[i] + "/" + sched.Name(), host: l, dec: degLE4(in.horizons[i]), sched: sched, cache: fresh})
		}
	}
	return runSweep(e, cfgs)
}

// mpInstances are the message-passing hosts.
type mpInstances struct {
	cycle, pyramid, floodCycle *graph.Labeled
}

// Horizons of the message-passing configurations.
const (
	mpCycleT   = 8
	mpPyramidT = 1
	mpFloodT   = 4
)

func buildMP(e *env) mpInstances {
	cycleN, h, floodN := 10_000, 6, 2_000
	if e.tiny {
		cycleN, h, floodN = 1_000, 4, 200
	}
	return timeGraph(e, func() mpInstances {
		return mpInstances{
			cycle: graph.RandomLabels(graph.Cycle(cycleN), ab, subSeed(e.seed, "mp-cycle")),
			// Uniform labels keep the pyramid's views repeating, so dedup
			// answers most of them and the halo exchange is what is measured.
			pyramid:    graph.UniformlyLabeled(tree.NewPyramid(h).G, ""),
			floodCycle: graph.RandomLabels(graph.Cycle(floodN), ab, subSeed(e.seed, "mp-flood")),
		}
	})
}

// mpShards is the shard count of the sharded message-passing runs: one per
// core of the machine the sizing was done on.
const mpShards = 2

// runMP: the sharded halo-exchange runtime on a cycle and on a pyramid with
// a level-contiguous partition, and the per-node flooding runtime.
func runMP(e *env) error {
	in, err := setup(e, func() (mpInstances, error) { return buildMP(e), nil }, nil)
	if err != nil {
		return err
	}
	for _, l := range []*graph.Labeled{in.cycle, in.pyramid, in.floodCycle} {
		e.in.labeled(l)
	}
	// The two sharded configurations come first, in the order of the
	// partition strategies their schedulers use (ShardedMPWith partitions
	// BFS-blocked).
	cfgs := []*config{
		{name: "sharded-cycle", host: in.cycle, dec: degLE4(mpCycleT), sched: engine.ShardedMPWith(mpShards)},
		{name: "sharded-pyramid", host: in.pyramid, dec: degLE4(mpPyramidT),
			sched: engine.ShardedMPPartitioned(mpShards, graph.PartitionLevelContiguous), dedup: true},
		{name: "flooding-cycle", host: in.floodCycle, dec: degLE4(mpFloodT), sched: engine.MessagePassing},
	}
	if err := withReferences(cfgs); err != nil {
		return err
	}
	var (
		floodWall, allWall, decideNs, busyWall float64
		nodes                                  int
		perRound                               engine.Stats
		shardedNodes                           int
		seen                                   = map[string]bool{}
	)
	err = e.measure(func(w *window) error {
		var observe func(evalRecord)
		if w.tr != nil {
			observe = func(rec evalRecord) {
				wall := float64(rec.wall.Nanoseconds())
				allWall += wall
				nodes += rec.cfg.host.N()
				decideNs += rec.decideNs
				busyWall += wall * float64(runtime.GOMAXPROCS(0))
				st := rec.out.Stats
				if rec.cfg.sched == engine.MessagePassing {
					floodWall += wall
				}
				// The protocol counts are exact: book them once per
				// configuration, as the counts of one round.
				if seen[rec.cfg.name] {
					return
				}
				seen[rec.cfg.name] = true
				perRound.Rounds += st.Rounds
				if rec.cfg.sched == engine.MessagePassing {
					perRound.Messages += st.Messages
					perRound.KnowledgeUnits += st.KnowledgeUnits
				}
				perRound.HaloBytes += st.HaloBytes
				perRound.GhostNodes += st.GhostNodes
				if st.Shards > 0 {
					shardedNodes += rec.cfg.host.N()
				}
			}
		}
		runRounds(e, cfgs, w, observe)
		return nil
	})
	if err != nil || !e.traced {
		return err
	}
	r := e.rep
	r.set("mp.rounds", float64(perRound.Rounds), 1)
	r.set("mp.flood_messages", float64(perRound.Messages), 1)
	r.set("mp.flood_knowledge_units", float64(perRound.KnowledgeUnits), 1)
	r.set("mp.halo_bytes", float64(perRound.HaloBytes), 1)
	r.set("mp.ghost_nodes", float64(perRound.GhostNodes), 1)
	if shardedNodes > 0 {
		r.set("mp.halo_bytes_per_node", float64(perRound.HaloBytes)/float64(shardedNodes), 1)
	}
	if allWall > 0 {
		r.set("mp.flood_share", floodWall/allWall, 1)
		r.set("mp.decide_busy_share", decideNs/busyWall, 1)
	}
	reportDecide(r, e.tr, nodes)

	// The partition layer: what the sharded runs pay to cut the host and
	// find each shard's halo, replayed on the same hosts.
	strategies := []graph.PartitionStrategy{graph.PartitionBFSBlocked, graph.PartitionLevelContiguous}
	var partition []float64
	for i := 0; i < 3; i++ {
		begin := time.Now()
		for k, strategy := range strategies {
			pt := graph.NewPartition(cfgs[k].host.G, mpShards, strategy)
			for s := 0; s < pt.Shards(); s++ {
				pt.Halo(s, cfgs[k].dec.Horizon)
			}
		}
		partition = append(partition, time.Since(begin).Seconds())
	}
	r.set("graph.partition_s", median(partition), len(partition))

	var costs []viewCost
	for _, c := range cfgs {
		costs = append(costs, replayHost(c.host, c.dec.Horizon, c.dedup, e.tr.clockNs))
	}
	reportGraphLayer(r, costs)
	return nil
}
