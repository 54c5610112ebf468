package engine

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestIncrementalEmptyInstance(t *testing.T) {
	l := graph.UniformlyLabeled(graph.New(0), "")
	if _, err := NewIncremental(degreeAtMost(2), l, Options{}); !errors.Is(err, ErrEmptyInstance) {
		t.Fatalf("err = %v, want ErrEmptyInstance", err)
	}
}

func TestIncrementalValidation(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(8), "")
	if _, err := NewIncremental(Decider{Name: "bad"}, l, Options{}); err == nil {
		t.Fatal("decider with no Decide function must fail validation")
	}
}

// TestIncrementalEdgeLifecycle walks a cycle through chord insertion and
// removal under the degree decider: the aggregate outcome and the individual
// verdicts must track each update, and each repair must stay ball-sized.
func TestIncrementalEdgeLifecycle(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(64), "c")
	inc := MustNewIncremental(degreeAtMost(2), l, Options{Dedup: true})
	if !inc.Accepted() {
		t.Fatal("plain cycle must accept deg<=2")
	}

	dirty := inc.ApplyEdge(3, 30, true)
	// Horizon 1: dirty = ball(3,1) ∪ ball(30,1) in the new graph = {3,2,4,30}
	// ∪ {30,29,31,3} = 6 nodes.
	if dirty != 6 {
		t.Fatalf("chord add repaired %d nodes, want 6", dirty)
	}
	if inc.Accepted() || inc.Rejects() != 2 {
		t.Fatalf("chord endpoints must reject: accepted=%v rejects=%d", inc.Accepted(), inc.Rejects())
	}
	if inc.Verdict(3) != No || inc.Verdict(30) != No || inc.Verdict(2) != Yes {
		t.Fatal("per-node verdicts wrong after chord add")
	}

	if d := inc.ApplyEdge(3, 30, true); d != 0 {
		t.Fatalf("duplicate add repaired %d nodes, want 0", d)
	}
	if d := inc.ApplyEdge(10, 40, false); d != 0 {
		t.Fatalf("absent remove repaired %d nodes, want 0", d)
	}

	if d := inc.ApplyEdge(3, 30, false); d != 6 {
		t.Fatalf("chord remove repaired %d nodes, want 6", d)
	}
	if !inc.Accepted() || inc.Rejects() != 0 {
		t.Fatalf("cycle restored but accepted=%v rejects=%d", inc.Accepted(), inc.Rejects())
	}
}

// TestIncrementalLabelUpdate checks ApplyLabel repairs exactly the ball
// around the relabelled node.
func TestIncrementalLabelUpdate(t *testing.T) {
	// Reject iff some label in the radius-2 view is "x".
	dec := Decider{Name: "no-x-r2", Horizon: 2, Decide: func(view *graph.View) Verdict {
		for _, lab := range view.Labels {
			if lab == "x" {
				return No
			}
		}
		return Yes
	}}
	l := graph.UniformlyLabeled(graph.Cycle(32), "c")
	inc := MustNewIncremental(dec, l, Options{})
	if !inc.Accepted() {
		t.Fatal("clean cycle must accept")
	}
	if d := inc.ApplyLabel(10, "x"); d != 5 {
		t.Fatalf("label repair touched %d nodes, want 5 (radius-2 cycle ball)", d)
	}
	if inc.Rejects() != 5 {
		t.Fatalf("rejects = %d, want 5 (nodes 8..12 see the x)", inc.Rejects())
	}
	if d := inc.ApplyLabel(10, "c"); d != 5 || !inc.Accepted() {
		t.Fatalf("heal repaired %d nodes, accepted=%v", d, inc.Accepted())
	}
}

// TestIncrementalInvalidateLabels mirrors the fault layer's in-place
// corruption: labels mutate externally, the session is told which nodes.
func TestIncrementalInvalidateLabels(t *testing.T) {
	dec := Decider{Name: "no-x-r1", Horizon: 1, Decide: func(view *graph.View) Verdict {
		for _, lab := range view.Labels {
			if lab == "x" {
				return No
			}
		}
		return Yes
	}}
	l := graph.UniformlyLabeled(graph.Cycle(24), "c")
	inc := MustNewIncremental(dec, l, Options{})
	l.Labels[4] = "x"
	l.Labels[17] = "x"
	inc.InvalidateLabels([]int{4, 17})
	if inc.Rejects() != 6 {
		t.Fatalf("rejects = %d, want 6", inc.Rejects())
	}
	l.Labels[4] = "c"
	l.Labels[17] = "c"
	inc.InvalidateLabels([]int{4, 17})
	if !inc.Accepted() {
		t.Fatal("healed labels must re-accept")
	}
}

// TestIncrementalExternalMutationDetected pins the ownership contract:
// mutating the host graph behind the session's back is a detected error at
// the next update, not silent verdict drift.
func TestIncrementalExternalMutationDetected(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(16), "c")
	inc := MustNewIncremental(degreeAtMost(2), l, Options{})
	l.G.ApplyUpdate(0, 8, true) // behind the session's back
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("update after external mutation did not panic")
		} else if !strings.Contains(r.(string), "mutated externally") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	inc.ApplyEdge(1, 9, true)
}

// TestIncrementalFaultInjection checks the session's crash handling: a node
// whose decides all crash is a failure (neither accept nor reject), surfaces
// in Outcome().Errs, and keeps the aggregate un-accepted; transient crashes
// retry through.
func TestIncrementalFaultInjection(t *testing.T) {
	l := graph.UniformlyLabeled(graph.Cycle(32), "c")

	// Node 5 crashes every attempt.
	inc := MustNewIncremental(degreeAtMost(2), l, Options{
		Faults: crashNodes{5: -1},
	})
	if inc.Accepted() || inc.Failed() != 1 || inc.Rejects() != 0 {
		t.Fatalf("accepted=%v failed=%d rejects=%d, want false/1/0", inc.Accepted(), inc.Failed(), inc.Rejects())
	}
	out := inc.Outcome()
	if len(out.Errs) != 1 || out.Errs[0].Node != 5 || out.Accepted {
		t.Fatalf("Outcome errs = %+v accepted=%v", out.Errs, out.Accepted)
	}
	// An update away from node 5 leaves the failure in place.
	inc.ApplyEdge(20, 25, true)
	if inc.Failed() != 1 {
		t.Fatalf("failure lost by unrelated update: failed=%d", inc.Failed())
	}

	// Node 7 crashes only on attempt 0: retries recover the verdict.
	l2 := graph.UniformlyLabeled(graph.Cycle(32), "c")
	inc2 := MustNewIncremental(degreeAtMost(2), l2, Options{
		Faults: crashNodes{7: 1},
	})
	if !inc2.Accepted() || inc2.Failed() != 0 {
		t.Fatalf("transient crash not retried through: accepted=%v failed=%d", inc2.Accepted(), inc2.Failed())
	}
	if s := inc2.Stats(); s.Retries == 0 || s.Crashes == 0 {
		t.Fatalf("stats missed the crash/retry: %+v", s)
	}
}

// crashNodes injects decide crashes: node -> number of crashing attempts
// (-1 = all attempts crash).
type crashNodes map[int]int

func (c crashNodes) CrashDecide(node, attempt int) bool {
	k, ok := c[node]
	if !ok {
		return false
	}
	return k < 0 || attempt < k
}

func (c crashNodes) MessageFate(round, from, to int) MessageFate {
	return MessageFate{Delivered: true, Attempts: 1}
}

// TestIncrementalSharedCache checks a shared ViewCache warms the session: a
// second session over the same instance decides nothing fresh.
func TestIncrementalSharedCache(t *testing.T) {
	cache := NewViewCache()
	l := graph.UniformlyLabeled(graph.Cycle(128), "c")
	inc1 := MustNewIncremental(degreeAtMost(2), l, Options{Cache: cache})
	s1 := inc1.Stats()
	if s1.Evaluated == 0 || !s1.CacheShared {
		t.Fatalf("first session stats: %+v", s1)
	}

	l2 := graph.UniformlyLabeled(graph.Cycle(128), "c")
	inc2 := MustNewIncremental(degreeAtMost(2), l2, Options{Cache: cache})
	s2 := inc2.Stats()
	if s2.Evaluated != 0 || s2.DedupHits != 128 {
		t.Fatalf("second session should be fully warm: %+v", s2)
	}
	if !inc2.Accepted() {
		t.Fatal("warm session lost the outcome")
	}
}

// TestIncrementalShardedRepair runs a large dirty set through the sharded
// repair path and pins it against the sequential session.
func TestIncrementalShardedRepair(t *testing.T) {
	// Dedup stays off: near-star views of sparse random graphs are the
	// canonical code's factorial worst case (a from-scratch Eval with Dedup
	// hangs on this exact instance too — the random family is evaluated
	// direct throughout the repo).
	g := graph.Random(400, 0.02, 11)
	dec := Decider{Name: "viewsize-nox-r1", Horizon: 1, Decide: func(view *graph.View) Verdict {
		return Verdict(view.N()%5 != 0 && !slices.Contains(view.Labels, "x"))
	}}
	type session struct {
		inc *Incremental
		l   *graph.Labeled
	}
	mk := func(sched Scheduler) session {
		l := graph.NewLabeled(g.Clone(), nil)
		return session{MustNewIncremental(dec, l, Options{Scheduler: sched}), l}
	}
	seq, shd := mk(Sequential), mk(ShardedWith(4))
	// Relabelling 40 spread nodes in place and invalidating them at once
	// makes the update's dirty set, the union of their balls, large enough
	// for the pool (the initial 400-node repair already ran sharded).
	var wide []int
	for i := 0; i < 40; i++ {
		wide = append(wide, 10*i)
	}
	steps := []func(s session){
		func(s session) {
			for _, v := range wide {
				s.l.Labels[v] = "x"
			}
			s.inc.InvalidateLabels(wide)
		},
		func(s session) {
			s.inc.ApplyLabel(0, "")
			s.inc.ApplyEdge(3, 77, true)
		},
	}
	for _, step := range steps {
		step(seq)
		step(shd)
		if seq.inc.Accepted() != shd.inc.Accepted() || seq.inc.Rejects() != shd.inc.Rejects() {
			t.Fatalf("sharded repair diverged: (%v,%d) vs (%v,%d)",
				seq.inc.Accepted(), seq.inc.Rejects(), shd.inc.Accepted(), shd.inc.Rejects())
		}
		for v := 0; v < 400; v++ {
			if seq.inc.Verdict(v) != shd.inc.Verdict(v) {
				t.Fatalf("node %d: sequential %v != sharded %v", v, seq.inc.Verdict(v), shd.inc.Verdict(v))
			}
		}
	}
	if ws := shd.inc.Stats().Workers; ws < 2 {
		t.Fatalf("sharded session never used its pool (workers=%d)", ws)
	}
}

// TestIncrementalRepairAllocationFree pins the steady state of a resident
// session: once warm, absorbing an edge update — dirty-ball collection,
// extraction, decide and commit — allocates nothing, on every family of
// BenchmarkIncrementalUpdates. One rotation of the toggle stream (every
// pair added, then removed) warms the session first: the first touch of a
// row or a larger ball than before grows the dynamic graph and the scratch
// buffers once.
func TestIncrementalRepairAllocationFree(t *testing.T) {
	for _, f := range updateFamilies {
		host := f.host()
		inc := MustNewIncremental(cheapDecider(f.horizon), graph.UniformlyLabeled(host, "c"), Options{})
		pairs := togglePairs(host.N())
		i := 0
		update := func() {
			p := pairs[i%len(pairs)]
			inc.ApplyEdge(p[0], p[1], !host.HasEdge(p[0], p[1]))
			i++
		}
		for range 2 * len(pairs) {
			update()
		}
		if allocs := testing.AllocsPerRun(2*len(pairs), update); allocs != 0 {
			t.Errorf("%s: %v allocs per update, want 0", f.name, allocs)
		}
	}
}
