package graph

import "math"

// Traversal is reusable scratch memory for breadth-first searches: one
// epoch-stamped visited array and one int32 queue that every search writes
// in discovery order. One layered search (search) backs Ball and its
// multi-centre form BallAround, Distance, IsConnected, Diameter and
// ComponentIDs, and, inside the package, ViewExtractor.At, Partition.Halo
// and the BFS-blocked partition's component sweep, so all of them agree on
// one discovery order: seeds first, then by distance, and within a layer
// by discovery. BFSFrom (an unstamped distance fill) and HasCycle (a
// depth-first search) keep loops of their own. One Traversal per worker
// turns repeated analyses into a 0 allocs/op steady state, which is what
// makes diameter sweeps and component scans over the n=10^6 instances
// (cycles, sparse random graphs, the height-10 pyramids) allocator-quiet.
//
// Depths come from layer boundaries, not from a distance per node: the
// search records the queue offset at which each depth begins, so a node's
// depth is the layer its queue position falls in.
//
// Epoch stamping: searches never clear their per-node state. A node counts
// as discovered only when stamp[v] equals the current epoch, so starting the
// next search is one counter increment instead of an O(n) wipe — a Ball of
// 7 nodes in a 10^6-node host touches 7 stamps, not 10^6. The epoch counter
// is wrapped safely: when it would overflow, the stamp array is zeroed once
// and counting restarts, so a stale stamp can never alias a live epoch.
// Full-output analyses (BFSFrom's distance vector, ComponentIDs' id vector)
// are Θ(n) by contract and fill a reused output buffer instead.
//
// A Traversal may be reused across graphs of different sizes; the scratch
// grows to the largest host seen. The zero value is ready to use.
//
// Lifetime contract: slices returned by BFSFrom, Ball, BallAround and
// ComponentIDs are owned by the Traversal and valid only until its next
// call. Callers that retain results must copy them (the package-level Graph
// methods are exactly those copying wrappers).
//
// A Traversal is not safe for concurrent use; give each goroutine its own.
type Traversal struct {
	// stamp holds the epoch at which each node was last discovered, sized
	// to the largest host seen.
	stamp []int32
	epoch int32

	// queue is the current epoch's discovery order (HasCycle's DFS stack).
	queue []int32
	// layers[d] is the queue offset at which depth d of the last search
	// begins; the last layer runs to the end of the queue.
	layers []int32
	// parent holds HasCycle's DFS parents, allocated by its first call.
	parent []int32

	// Reused output buffers: the node list of Ball and BallAround,
	// BFSFrom's full distance vector, ComponentIDs' id vector.
	ball    []int
	distOut []int32
	comp    []int32
}

// NewTraversal returns an empty Traversal. Equivalent to new(Traversal);
// scratch arrays are grown on first use.
func NewTraversal() *Traversal { return &Traversal{} }

// next begins a new epoch, with an empty queue and per-node state grown to
// n nodes.
func (t *Traversal) next(n int) {
	if len(t.stamp) < n {
		// Fresh arrays are zeroed, so restart the epoch count: stamp 0 never
		// equals an epoch >= 1.
		t.stamp = make([]int32, n)
		t.epoch = 0
	}
	if t.epoch == math.MaxInt32 {
		clear(t.stamp)
		t.epoch = 0
	}
	t.epoch++
	t.queue = t.queue[:0]
}

// seen reports whether the current epoch has discovered v.
func (t *Traversal) seen(v int32) bool { return t.stamp[v] == t.epoch }

// visit discovers v, appending it to the queue, unless the current epoch
// has already seen it.
func (t *Traversal) visit(v int32) {
	if !t.seen(v) {
		t.stamp[v] = t.epoch
		t.queue = append(t.queue, v)
	}
}

// search is the one breadth-first search. It grows the search whose seeds
// are t.queue[from:] layer by layer, appending every node the current epoch
// has not yet seen to the queue as it is discovered. It stops at depth
// bound (no bound when bound < 0), after the layer that discovers stop
// (none when stop < 0), or when a layer comes up empty. Depth d of the
// search is then t.queue[t.layers[d]:t.layers[d+1]], the last layer
// running to the end of the queue. The queue and its layer boundaries stay
// in locals until the search ends, so no layer stores a pointer.
func (t *Traversal) search(g *Graph, from, bound int, stop int32) {
	stamp, e, q := t.stamp, t.epoch, t.queue
	layers := append(t.layers[:0], int32(from))
	for lo := from; len(layers)-1 != bound && (stop < 0 || stamp[stop] != e); {
		hi := len(q)
		for _, w := range q[lo:hi] {
			for _, u := range g.row(int(w)) {
				if stamp[u] != e {
					stamp[u] = e
					q = append(q, u)
				}
			}
		}
		if len(q) == hi {
			break
		}
		layers = append(layers, int32(hi))
		lo = hi
	}
	t.queue, t.layers = q, layers
}

// layer returns depth d of the last search.
func (t *Traversal) layer(d int) []int32 {
	hi := len(t.queue)
	if d+1 < len(t.layers) {
		hi = int(t.layers[d+1])
	}
	return t.queue[t.layers[d]:hi]
}

// BFSFrom runs a breadth-first search from source and returns the distance
// to every node; unreachable nodes get distance -1. The returned slice is
// scratch-owned: it is valid until the Traversal's next call and must be
// copied to be retained. Steady-state the call is 0 allocs/op; the
// distance fill is Θ(n) by contract.
func (t *Traversal) BFSFrom(g *Graph, source int) []int32 {
	g.check(source)
	n := g.N()
	if cap(t.distOut) < n {
		t.distOut = make([]int32, n)
	}
	dist := t.distOut[:n]
	for i := range dist {
		dist[i] = -1
	}
	dist[source] = 0
	q := append(t.queue[:0], int32(source))
	for head := 0; head < len(q); head++ {
		v := q[head]
		dv := dist[v] + 1
		for _, u := range g.row(int(v)) {
			if dist[u] == -1 {
				dist[u] = dv
				q = append(q, u)
			}
		}
	}
	t.queue = q
	return dist
}

// Ball returns the nodes within distance radius of v, in BFS discovery
// order with the centre first — element-for-element the same order as
// Graph.Ball. The returned slice is scratch-owned (valid until the next
// call); the search touches only the ball, not the whole host, and is
// 0 allocs/op steady-state.
func (t *Traversal) Ball(g *Graph, v, radius int) []int {
	return t.BallAround(g, []int{v}, radius)
}

// BallAround returns B(S, radius), the nodes within distance radius of some
// centre in S, from one multi-source search: the centres first, in the
// order given and each once, then by distance. The union of the radius-t
// balls around several nodes is exactly this set. The slice is
// scratch-owned like Ball's, and the call is 0 allocs/op steady-state.
func (t *Traversal) BallAround(g *Graph, centres []int, radius int) []int {
	t.next(g.N())
	for _, v := range centres {
		g.check(v)
		t.visit(int32(v))
	}
	if radius < 0 {
		panic("graph: negative radius")
	}
	t.search(g, 0, radius, -1)
	t.ball = t.ball[:0]
	for _, v := range t.queue {
		t.ball = append(t.ball, int(v))
	}
	return t.ball
}

// IsConnected reports whether the graph is connected; the empty graph
// counts as connected. 0 allocs/op steady-state.
func (t *Traversal) IsConnected(g *Graph) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	_, reached := t.eccentricity(g, 0)
	return reached == n
}

// ComponentIDs labels every node with its connected-component id and
// returns the id vector together with the component count. Ids are dense
// and assigned in order of each component's smallest member, so grouping
// nodes 0..n-1 by id yields exactly Graph.ConnectedComponents. The sweep
// leaves every node in the queue, component by component, each in the
// discovery order of a search from its smallest member. The id vector is
// scratch-owned (valid until the next call); steady-state the scan is
// 0 allocs/op.
func (t *Traversal) ComponentIDs(g *Graph) ([]int32, int) {
	n := g.N()
	if cap(t.comp) < n {
		t.comp = make([]int32, n)
	}
	comp := t.comp[:n]
	t.next(n)
	count := 0
	for start := range int32(n) {
		if t.seen(start) {
			continue
		}
		from := len(t.queue)
		t.visit(start)
		t.search(g, from, -1, -1)
		for _, v := range t.queue[from:] {
			comp[v] = int32(count)
		}
		count++
	}
	return comp, count
}

// Diameter returns the largest finite shortest-path distance, or -1 for a
// disconnected or empty graph. It runs one stamped search per node over the
// shared scratch — 0 allocs/op steady-state, where the slice-allocating
// equivalent churns ~n fresh distance vectors.
func (t *Traversal) Diameter(g *Graph) int {
	n := g.N()
	if n == 0 {
		return -1
	}
	diameter := 0
	for v := 0; v < n; v++ {
		ecc, reached := t.eccentricity(g, v)
		if reached != n {
			return -1
		}
		diameter = max(diameter, ecc)
	}
	return diameter
}

// Distance returns the shortest-path distance between u and v, or -1 if
// they are in different components. The search stops after the layer that
// reaches v. 0 allocs/op steady-state.
func (t *Traversal) Distance(g *Graph, u, v int) int {
	g.check(u)
	g.check(v)
	t.next(g.N())
	t.visit(int32(u))
	t.search(g, 0, -1, int32(v))
	if !t.seen(int32(v)) {
		return -1
	}
	return len(t.layers) - 1
}

// HasCycle reports whether the graph contains any cycle. It runs the same
// stack-based search as Graph.HasCycle over epoch-stamped visited/parent
// scratch. 0 allocs/op steady-state.
func (t *Traversal) HasCycle(g *Graph) bool {
	n := g.N()
	t.next(n)
	if len(t.parent) < n {
		t.parent = make([]int32, n)
	}
	e := t.epoch
	q := t.queue // used as a stack here
	for start := 0; start < n; start++ {
		if t.stamp[start] == e {
			continue
		}
		t.stamp[start] = e
		t.parent[start] = -1
		q = append(q[:0], int32(start))
		for len(q) > 0 {
			v := q[len(q)-1]
			q = q[:len(q)-1]
			for _, u := range g.row(int(v)) {
				if t.stamp[u] != e {
					t.stamp[u] = e
					t.parent[u] = v
					q = append(q, u)
				} else if t.parent[v] != u {
					t.queue = q
					return true
				}
			}
		}
	}
	t.queue = q
	return false
}

// eccentricity searches from source and returns the depth of its last
// layer together with the number of nodes reached.
func (t *Traversal) eccentricity(g *Graph, source int) (ecc, reached int) {
	t.next(g.N())
	t.visit(int32(source))
	t.search(g, 0, -1, -1)
	return len(t.layers) - 1, len(t.queue)
}
