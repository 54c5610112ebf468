package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/props"
)

// edgeStream generates a seeded stream of edge updates that keeps the edge
// count constant: it alternates removing a random present edge with adding a
// random absent pair. (A stream that only toggles would mostly add edges to
// a sparse host, so its cost would drift with the run's length.) A
// restricted stream adds back only pairs it removed, so its host never
// leaves the family it started in. Every update it issues goes into the
// run's input hash.
type edgeStream struct {
	rng   *rand.Rand
	in    *inputHash
	n     int
	edges [][2]int32
	index map[uint64]int
	// removed holds the absent pairs a restricted stream may add.
	removed    [][2]int32
	restricted bool
	remove     bool
}

func newEdgeStream(g *graph.Graph, rng *rand.Rand, in *inputHash, restricted bool) *edgeStream {
	s := &edgeStream{rng: rng, in: in, n: g.N(), index: map[uint64]int{}, restricted: restricted, remove: true}
	for _, e := range g.Edges() {
		s.put(int32(e[0]), int32(e[1]))
	}
	return s
}

func edgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

func (s *edgeStream) put(u, v int32) {
	s.index[edgeKey(u, v)] = len(s.edges)
	s.edges = append(s.edges, [2]int32{u, v})
}

// take swap-deletes element i of pairs.
func take(pairs [][2]int32, i int) ([2]int32, [][2]int32) {
	p := pairs[i]
	last := len(pairs) - 1
	pairs[i] = pairs[last]
	return p, pairs[:last]
}

// next returns the stream's next update.
func (s *edgeStream) next() engine.EdgeOp {
	op := s.draw()
	add := int64(0)
	if op.Add {
		add = 1
	}
	s.in.ints(int64(op.U), int64(op.V), add)
	return op
}

func (s *edgeStream) draw() engine.EdgeOp {
	if s.remove = !s.remove; !s.remove {
		var e [2]int32
		i := s.rng.Intn(len(s.edges))
		e, s.edges = take(s.edges, i)
		if i < len(s.edges) {
			s.index[edgeKey(s.edges[i][0], s.edges[i][1])] = i
		}
		delete(s.index, edgeKey(e[0], e[1]))
		if s.restricted {
			s.removed = append(s.removed, e)
		}
		return engine.EdgeOp{U: int(e[0]), V: int(e[1]), Add: false}
	}
	if s.restricted {
		var e [2]int32
		e, s.removed = take(s.removed, s.rng.Intn(len(s.removed)))
		s.put(e[0], e[1])
		return engine.EdgeOp{U: int(e[0]), V: int(e[1]), Add: true}
	}
	for {
		u, v := int32(s.rng.Intn(s.n)), int32(s.rng.Intn(s.n))
		if u == v {
			continue
		}
		if _, present := s.index[edgeKey(u, v)]; present {
			continue
		}
		s.put(u, v)
		return engine.EdgeOp{U: int(u), V: int(v), Add: true}
	}
}

// dynamicHosts are the two session hosts: a random sparse graph carrying
// forest certificates, and a cycle under degree2.
type dynamicHosts struct {
	random, cycle *graph.Labeled
}

var (
	forestCert = local.EngineObliviousDecider(props.ForestCertVerifier())
	degree2    = local.EngineObliviousDecider(props.BoundedDegreeVerifier(2))
)

func buildDynamic(e *env) dynamicHosts {
	n := 10_000
	if e.tiny {
		n = 1_000
	}
	return timeGraph(e, func() dynamicHosts {
		g := graph.Random(n, 4/float64(n), subSeed(e.seed, "dynamic-random"))
		return dynamicHosts{
			random: graph.NewLabeled(g, props.CertifyForest(g)),
			cycle:  graph.UniformlyLabeled(graph.Cycle(n), ""),
		}
	})
}

// session is one resident incremental session with its update stream.
type session struct {
	name   string
	dec    engine.Decider
	l      *graph.Labeled
	inc    *engine.Incremental
	cache  *engine.ViewCache
	stream *edgeStream
	// restricted makes the stream add back only edges it removed.
	restricted bool
	// initial is a copy of the host as the traced window found it, for the
	// graph layer's replay.
	initial *graph.Labeled
}

// checkEvery is the number of updates per session between checkpoints, each
// a comparison with a from-scratch evaluation.
func checkEvery(tiny bool) int {
	if tiny {
		return 100
	}
	return 10_000
}

// dynamicBatch is the number of steps in one answer.
const dynamicBatch = 50

// runDynamic: two sessions advance in lockstep, one update from each stream
// per step. One answer is a batch of dynamicBatch steps, its latency the sum
// of their ApplyEdge calls (stream generation excluded); each update is one
// unit of work. (Answers are batches so the window does not keep a sample
// per call, which would grow the process by tens of megabytes over a window;
// the traced half keeps the per-call latencies.) The sessions are checked
// against from-scratch evaluations between timed stretches.
func runDynamic(e *env) error {
	type state struct {
		hosts dynamicHosts
		a, b  *engine.Incremental
		cache *engine.ViewCache
	}
	s, err := setup(e, func() (state, error) {
		st := state{hosts: buildDynamic(e), cache: engine.NewViewCache()}
		var err error
		if st.a, err = engine.NewIncremental(forestCert, st.hosts.random, engine.Options{}); err != nil {
			return st, err
		}
		st.b, err = engine.NewIncremental(degree2, st.hosts.cycle, engine.Options{Cache: st.cache})
		return st, err
	}, nil)
	if err != nil {
		return err
	}
	// The cycle's stream only re-adds edges it cut, so the host stays a
	// cycle cut into paths: adding arbitrary pairs would turn it into a
	// sparse random graph, whose cached views hit the excluded input (see
	// README.md) and stall a window for minutes.
	sessions := []*session{
		{name: "random", dec: forestCert, l: s.hosts.random, inc: s.a},
		{name: "cycle", dec: degree2, l: s.hosts.cycle, inc: s.b, cache: s.cache, restricted: true},
	}
	for i, ss := range sessions {
		e.in.labeled(ss.l)
		ss.stream = newEdgeStream(ss.l.G, newRand(e.seed, fmt.Sprint("dynamic-ops-", i)), &e.in, ss.restricted)
	}
	every := checkEvery(e.tiny)
	checkpoint := func() error {
		for _, ss := range sessions {
			ref, err := reference(ss.dec, ss.l)
			if err != nil {
				return err
			}
			e.rep.check(slices.Equal(ss.inc.Verdicts(), ref))
		}
		return nil
	}

	var (
		cache                     cacheDelta
		dirty, evaluated, updates int
		applyUs                   []float64
		replayed                  = make([][]engine.EdgeOp, len(sessions))
	)
	err = e.measure(func(w *window) error {
		if w.tr != nil {
			for _, ss := range sessions {
				ss.inc = reopen(ss, w.tr)
				ss.initial = &graph.Labeled{G: ss.l.G.Clone(), Labels: ss.l.Labels}
			}
		}
		var before []engine.Stats
		var cacheBefore engine.CacheStats
		if w.tr != nil {
			for _, ss := range sessions {
				before = append(before, ss.inc.Stats())
			}
			cacheBefore = s.cache.Stats()
		}
		for w.more() {
			for k := 0; k < every && w.more(); k += dynamicBatch {
				batch := w.tr.begin("batch", 0, 0)
				var took time.Duration
				for j := 0; j < dynamicBatch; j++ {
					for i, ss := range sessions {
						op := ss.stream.next()
						sp := w.tr.begin("engine.Incremental.ApplyEdge/"+ss.name, batch.id(), batch.id())
						begin := time.Now()
						ss.inc.ApplyEdge(op.U, op.V, op.Add)
						d := time.Since(begin)
						sp.end()
						took += d
						if w.tr != nil {
							dirty += len(ss.inc.LastDirty())
							updates++
							applyUs = append(applyUs, float64(d.Nanoseconds())/1e3)
							if len(replayed[i]) < replayOps {
								replayed[i] = append(replayed[i], op)
							}
						}
					}
				}
				batch.end()
				w.record(took, float64(dynamicBatch*len(sessions)))
			}
			if err := checkpoint(); err != nil {
				return err
			}
		}
		if w.tr != nil {
			for i, ss := range sessions {
				evaluated += ss.inc.Stats().Evaluated - before[i].Evaluated
			}
			cache.add(cacheBefore, s.cache.Stats())
		}
		return nil
	})
	if err != nil || !e.traced {
		return err
	}
	r := e.rep
	r.set("incremental.dirty_per_update", float64(dirty)/float64(updates), updates)
	r.set("incremental.evaluated_per_update", float64(evaluated)/float64(updates), updates)
	r.set("incremental.apply_p50_us", median(applyUs), updates)
	r.set("incremental.apply_p99_us", quantile(applyUs, 0.99), updates)
	cache.report(r)
	reportDecide(r, e.tr, evaluated)

	// The graph layer alone, on copies of the hosts as the traced window
	// found them: the views, then ApplyUpdate and the dirty-ball traversals
	// under the same streams.
	var costs []viewCost
	var applyTotal, ballTotal float64
	ops := 0
	for i, ss := range sessions {
		costs = append(costs, replayHost(ss.initial, ss.dec.Horizon, ss.cache != nil, e.tr.clockNs))
		a, b := replayUpdates(ss.initial.G, replayed[i], ss.dec.Horizon, e.tr.clockNs)
		applyTotal += a
		ballTotal += b
		ops += len(replayed[i])
	}
	reportGraphLayer(r, costs)
	if ops > 0 {
		applyPer, ballPer := applyTotal/float64(ops), ballTotal/float64(ops)
		r.set("graph.apply_update_ns", applyPer, ops)
		r.set("graph.dirty_ball_ns", ballPer, ops)
		meanUpdate := 0.0
		for _, us := range applyUs {
			meanUpdate += us * 1e3
		}
		meanUpdate /= float64(updates)
		r.set("incremental.repair_share", max(meanUpdate-applyPer-ballPer, 0)/meanUpdate, updates)
	}
	return nil
}

// replayOps is how many updates per session the graph-layer replay repeats.
const replayOps = 100_000

// reopen swaps a session's decider for the traced one: a traced window needs
// decide calls timed, and a session keeps the decider it was opened with.
// The new session opens on the same host and cache, and its initial
// evaluation is not part of any window.
func reopen(ss *session, tr *tracer) *engine.Incremental {
	opts := engine.Options{}
	if ss.cache != nil {
		opts.Cache = ss.cache
	}
	return engine.MustNewIncremental(tr.wrap(ss.dec), ss.l, opts)
}

// replayUpdates applies ops to g as a session does — dirty balls around both
// endpoints, taken before a removal and after an insertion — and returns the
// total nanoseconds in ApplyUpdate and in Traversal.Ball.
func replayUpdates(g *graph.Graph, ops []engine.EdgeOp, horizon int, clockNs float64) (applyNs, ballNs float64) {
	g.BeginUpdates()
	tr := graph.NewTraversal()
	timed := func(f func()) float64 {
		begin := time.Now()
		f()
		return max(float64(time.Since(begin).Nanoseconds())-clockNs, 0)
	}
	for _, op := range ops {
		ball := func() {
			tr.Ball(g, op.U, horizon)
			tr.Ball(g, op.V, horizon)
		}
		if op.Add {
			applyNs += timed(func() { g.ApplyUpdate(op.U, op.V, true) })
			ballNs += timed(ball)
		} else {
			ballNs += timed(ball)
			applyNs += timed(func() { g.ApplyUpdate(op.U, op.V, false) })
		}
	}
	return applyNs, ballNs
}
