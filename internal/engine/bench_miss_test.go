package engine

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/graph"
)

// The dedup-MISS benchmark: cold cache, dedup on, cache re-created every
// iteration, over hosts whose per-node labels make every view distinct — so
// every node pays the full miss path (raw-key miss, canonical code, decide,
// insert) instead of the ~0.9999-hit-rate regime BenchmarkDedup measures.
//
// Two arms per family, and the two timed as pairs:
//
//	engine  — the current miss path: shape fast paths + cell-local
//	          refinement with twin pruning (EvalOblivious with a fresh
//	          private cache per iteration).
//	replica — the BENCH_5-era miss path, frozen below: the same extraction,
//	          raw-key and cache protocol, but canonical codes computed by the
//	          PR5 generic pipeline (per-round comparison sorts, per-node
//	          slices.Sort of neighbour colours, int-typed SoA).
//	paired  — one engine run, then one replica run, per iteration; it
//	          reports the median engine/replica ratio. The
//	          scripts/benchgate rows gate it at 0.1468 on the cycle family
//	          and at 0.6 on the grid family, whose views take the generic
//	          tier.
//
// The replica is a faithful port of internal/graph/code.go as of BENCH_5
// (git ae9f8a1) onto the public Graph API; it exists only as a measurement
// baseline and is differentially pinned against the live pipeline by
// TestMissReplicaMatchesLivePipeline.

// missFamilies are the cold-sweep hosts. Random two-letter labels make the
// views pairwise distinct (so both cache layers miss on every node — the
// assertion in the bench body checks this) while leaving plenty of symmetry
// inside each view, which is exactly what costs the generic pipeline
// refinement rounds. Shapes cover the fast paths (path segments of a cycle,
// deg ≤ 4 tree views) plus the generic fallback (grid views, deg 4 with
// cycles).
func missFamilies() []struct {
	name    string
	host    *graph.Labeled
	horizon int
} {
	ab := []graph.Label{"a", "b"}
	rng := rand.New(rand.NewSource(17))
	tree := graph.New(512)
	deg := make([]int, 512)
	for v := 1; v < 512; v++ {
		u := rng.Intn(v)
		for deg[u] >= 3 {
			u = rng.Intn(v)
		}
		tree.AddEdge(v, u)
		deg[u]++
		deg[v]++
	}
	return []struct {
		name    string
		host    *graph.Labeled
		horizon int
	}{
		{"cycle512-r16", graph.RandomLabels(graph.Cycle(512), ab, 23), 16},
		{"tree512-r5", graph.RandomLabels(tree, ab, 29), 5},
		{"grid20x20-r3", graph.RandomLabels(graph.Grid(20, 20), ab, 31), 3},
	}
}

func BenchmarkDedupMiss(b *testing.B) {
	for _, fam := range missFamilies() {
		dec := cheapDecider(fam.horizon)
		// A handful of repeated leaf neighbourhoods is tolerable; the bench
		// must stay a miss bench, so hits are capped at 5% of nodes.
		maxHits := fam.host.N() / 20
		b.Run(fam.name+"/engine", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := EvalOblivious(dec, fam.host, Options{Dedup: true})
				if out.Stats.DedupHits > maxHits {
					b.Fatalf("miss bench host produced %d dedup hits; labels not distinct enough", out.Stats.DedupHits)
				}
			}
		})
		b.Run(fam.name+"/replica", func(b *testing.B) {
			b.ReportAllocs()
			w := &replicaWorkspace{}
			w.sigS.w = w
			for i := 0; i < b.N; i++ {
				if hits := replicaColdSweep(dec, fam.host, w); hits > maxHits {
					b.Fatalf("miss bench host produced %d dedup hits; labels not distinct enough", hits)
				}
			}
		})
		// The gated form of the two arms, timed the way
		// BenchmarkStoreSteadyOverhead times its pair: every iteration runs
		// the engine arm, then the replica arm, and the benchmark reports
		// the median per-iteration ratio. Drift on a shared runner hits
		// both arms of a pair alike, and a spike on either arm of a few
		// pairs cannot move the median; a minimum per independently timed
		// arm moved by a third between runs.
		b.Run(fam.name+"/paired", func(b *testing.B) {
			w := &replicaWorkspace{}
			w.sigS.w = w
			ratios := make([]float64, 0, b.N)
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				EvalOblivious(dec, fam.host, Options{Dedup: true})
				t1 := time.Now()
				replicaColdSweep(dec, fam.host, w)
				ratios = append(ratios, float64(t1.Sub(t0))/float64(time.Since(t1)))
			}
			slices.Sort(ratios)
			b.ReportMetric(ratios[len(ratios)/2], "engine/replica")
		})
	}
}

// replicaColdSweep is the PR5 sequential dedup evaluation loop: one batched
// extractor, a fresh two-layer cache, and the frozen generic pipeline for
// every canonical code. Returns the dedup hit count (expected 0 on the miss
// families).
func replicaColdSweep(dec Decider, host *graph.Labeled, w *replicaWorkspace) int {
	cache := NewViewCache()
	x := graph.NewViewExtractor(host)
	hits := 0
	for v := 0; v < host.N(); v++ {
		view := x.At(v, dec.Horizon)
		if view.N() > dedupMaxViewNodes {
			_ = dec.Decide(view)
			continue
		}
		raw := view.RawCode()
		if _, ok := cache.lookupRaw(dec.Name, dec.Horizon, raw); ok {
			hits++
			continue
		}
		code := w.rootedCode(view.Labeled, view.Root)
		verdict, computed, _ := cache.lookupOrCompute(dec.Name, dec.Horizon, code,
			func() Verdict { return dec.Decide(view) })
		if !computed {
			hits++
		}
		cache.storeRaw(dec.Name, dec.Horizon, raw, verdict)
	}
	return hits
}

// TestMissReplicaMatchesLivePipeline pins the replica to the live pipeline
// on the benchmark's own view population: equal codes iff equal live codes
// (the byte encodings differ by design — fast paths use their own namespace
// — but the induced equivalence, which is what dedup consumes, must match).
func TestMissReplicaMatchesLivePipeline(t *testing.T) {
	w := &replicaWorkspace{}
	w.sigS.w = w
	live := graph.NewCodeWorkspace()
	for _, fam := range missFamilies() {
		x := graph.NewViewExtractor(fam.host)
		seen := map[string]string{}
		for v := 0; v < fam.host.N(); v += 7 {
			view := x.At(v, fam.horizon)
			rc := string(w.rootedCode(view.Labeled, view.Root).Bytes)
			lc := string(live.RootedCode(view.Labeled, view.Root).Clone().Bytes)
			if prev, ok := seen[rc]; ok && prev != lc {
				t.Fatalf("%s node %d: replica code collides across distinct live codes", fam.name, v)
			}
			seen[rc] = lc
		}
		liveSeen := map[string]bool{}
		for _, lc := range seen {
			if liveSeen[lc] {
				t.Fatalf("%s: live code collides across distinct replica codes", fam.name)
			}
			liveSeen[lc] = true
		}
	}
}

// ---------------------------------------------------------------------------
// Frozen BENCH_5 generic pipeline (PR5, git ae9f8a1), ported onto the public
// Graph API. Do not optimise: its whole purpose is to stay what PR5 shipped.
// ---------------------------------------------------------------------------

type replicaWorkspace struct {
	cur      []int
	next     []int
	sigPos   []int
	sigLen   []int
	sigBuf   []int
	order    []int
	counts   []int
	initS    replicaInitSorter
	sigS     replicaSigSorter
	encOrder []int
	encNbrs  []int
	buf      []byte
	frames   []replicaFrame
}

type replicaFrame struct {
	colors []int
	best   []byte
	try    []byte
}

func (w *replicaWorkspace) rootedCode(l *graph.Labeled, root int) graph.Code {
	n := l.N()
	w.grow(n)
	w.buf = w.buf[:0]
	if n == 0 {
		w.buf = binary.AppendUvarint(w.buf, 0)
		return graph.Code{Fingerprint: replicaFNV(w.buf), Bytes: w.buf}
	}
	k := w.initColors(l, root)
	w.buf = w.canon(l, root, 0, k, w.cur[:n], w.buf)
	return graph.Code{Fingerprint: replicaFNV(w.buf), Bytes: w.buf}
}

func replicaFNV(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func (w *replicaWorkspace) grow(n int) {
	if cap(w.cur) < n {
		w.cur = make([]int, n)
		w.next = make([]int, n)
		w.sigPos = make([]int, n)
		w.sigLen = make([]int, n)
		w.order = make([]int, n)
		w.counts = make([]int, n+1)
		w.encOrder = make([]int, n)
	}
	if len(w.frames) < n+1 {
		frames := make([]replicaFrame, n+1)
		copy(frames, w.frames)
		w.frames = frames
	}
}

func (w *replicaWorkspace) initColors(l *graph.Labeled, root int) int {
	n := l.N()
	uniform := true
	for _, lab := range l.Labels {
		if lab != l.Labels[0] {
			uniform = false
			break
		}
	}
	if uniform {
		if root < 0 || n == 1 {
			for i := 0; i < n; i++ {
				w.cur[i] = 0
			}
			return 1
		}
		for i := 0; i < n; i++ {
			w.cur[i] = 1
		}
		w.cur[root] = 0
		return 2
	}
	order := w.order[:n]
	for i := range order {
		order[i] = i
	}
	w.initS = replicaInitSorter{order: order, labels: l.Labels, root: root}
	sort.Sort(&w.initS)
	k := 0
	w.cur[order[0]] = 0
	for i := 1; i < n; i++ {
		prev, v := order[i-1], order[i]
		if (v == root) != (prev == root) || l.Labels[v] != l.Labels[prev] {
			k++
		}
		w.cur[v] = k
	}
	return k + 1
}

type replicaInitSorter struct {
	order  []int
	labels []graph.Label
	root   int
}

func (s *replicaInitSorter) Len() int      { return len(s.order) }
func (s *replicaInitSorter) Swap(i, j int) { s.order[i], s.order[j] = s.order[j], s.order[i] }
func (s *replicaInitSorter) Less(i, j int) bool {
	a, b := s.order[i], s.order[j]
	if (a == s.root) != (b == s.root) {
		return a == s.root
	}
	return s.labels[a] < s.labels[b]
}

func (w *replicaWorkspace) canon(l *graph.Labeled, root, depth, k int, colors []int, out []byte) []byte {
	k = w.refine(l.G, colors, k)
	target := w.firstNonSingletonClass(colors, k)
	if target < 0 {
		return w.encode(l, root, colors, out)
	}
	f := &w.frames[depth]
	if cap(f.colors) < len(colors) {
		f.colors = make([]int, len(colors))
	}
	haveBest := false
	for v := range colors {
		if colors[v] != target {
			continue
		}
		bc := f.colors[:len(colors)]
		copy(bc, colors)
		for u := range bc {
			bc[u]++
		}
		bc[v] = 0
		f.try = w.canon(l, root, depth+1, k+1, bc, f.try[:0])
		if !haveBest || bytes.Compare(f.try, f.best) < 0 {
			f.best = append(f.best[:0], f.try...)
			haveBest = true
		}
	}
	return append(out, f.best...)
}

func (w *replicaWorkspace) refine(g *graph.Graph, colors []int, k int) int {
	n := len(colors)
	for {
		w.sigBuf = w.sigBuf[:0]
		for v := 0; v < n; v++ {
			w.sigPos[v] = len(w.sigBuf)
			w.sigBuf = append(w.sigBuf, colors[v])
			start := len(w.sigBuf)
			for _, u := range g.Neighbors(v) {
				w.sigBuf = append(w.sigBuf, colors[u])
			}
			slices.Sort(w.sigBuf[start:])
			w.sigLen[v] = len(w.sigBuf) - w.sigPos[v]
		}
		order := w.order[:n]
		for i := range order {
			order[i] = i
		}
		if n <= 32 {
			for i := 1; i < n; i++ {
				for j := i; j > 0 && w.compareSig(order[j-1], order[j]) > 0; j-- {
					order[j-1], order[j] = order[j], order[j-1]
				}
			}
		} else {
			w.sigS.n = n
			sort.Sort(&w.sigS)
		}
		next := w.next[:n]
		kNext := 0
		next[order[0]] = 0
		for i := 1; i < n; i++ {
			if w.compareSig(order[i-1], order[i]) != 0 {
				kNext++
			}
			next[order[i]] = kNext
		}
		kNext++
		copy(colors, next)
		if kNext == k {
			return k
		}
		k = kNext
	}
}

func (w *replicaWorkspace) compareSig(a, b int) int {
	pa, la := w.sigPos[a], w.sigLen[a]
	pb, lb := w.sigPos[b], w.sigLen[b]
	m := la
	if lb < m {
		m = lb
	}
	buf := w.sigBuf
	for i := 0; i < m; i++ {
		if x, y := buf[pa+i], buf[pb+i]; x != y {
			if x < y {
				return -1
			}
			return 1
		}
	}
	return la - lb
}

type replicaSigSorter struct {
	w *replicaWorkspace
	n int
}

func (s *replicaSigSorter) Len() int { return s.n }
func (s *replicaSigSorter) Swap(i, j int) {
	o := s.w.order
	o[i], o[j] = o[j], o[i]
}
func (s *replicaSigSorter) Less(i, j int) bool {
	return s.w.compareSig(s.w.order[i], s.w.order[j]) < 0
}

func (w *replicaWorkspace) firstNonSingletonClass(colors []int, k int) int {
	counts := w.counts[:k]
	for c := range counts {
		counts[c] = 0
	}
	for _, c := range colors {
		counts[c]++
	}
	for c, cnt := range counts {
		if cnt > 1 {
			return c
		}
	}
	return -1
}

func (w *replicaWorkspace) encode(l *graph.Labeled, root int, colors []int, out []byte) []byte {
	n := l.N()
	order := w.encOrder[:n]
	for v, c := range colors {
		order[c] = v
	}
	out = binary.AppendUvarint(out, uint64(n))
	for _, v := range order {
		flag := byte(0)
		if v == root {
			flag = 1
		}
		out = append(out, flag)
		lab := l.Labels[v]
		out = binary.AppendUvarint(out, uint64(len(lab)))
		out = append(out, lab...)
	}
	for _, v := range order {
		nbrs := l.G.Neighbors(v)
		out = binary.AppendUvarint(out, uint64(len(nbrs)))
		p := w.encNbrs[:0]
		for _, u := range nbrs {
			p = append(p, colors[u])
		}
		slices.Sort(p)
		w.encNbrs = p
		for _, q := range p {
			out = binary.AppendUvarint(out, uint64(q))
		}
	}
	return out
}
