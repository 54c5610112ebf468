package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// The parity suite is the engine's core guarantee: every scheduler — and
// every option combination — produces exactly the per-node verdicts of the
// naive seed-era loop (one graph.ViewOf / ObliviousViewOf call per node).
// It runs property-based over randomized instance suites (cycles, trees,
// random graphs) and over ID-using, oblivious, randomized, and
// NLD-certificate deciders.

// legacyEval is the historical per-node loop the engine replaced, kept here
// as the reference implementation.
func legacyEval(dec Decider, l *graph.Labeled, in *graph.Instance, seed int64) []Verdict {
	verdicts := make([]Verdict, l.N())
	for v := 0; v < l.N(); v++ {
		var view *graph.View
		if in != nil {
			view = graph.ViewOf(in, v, dec.Horizon)
		} else {
			view = graph.ObliviousViewOf(l, v, dec.Horizon)
		}
		if dec.DecideRand != nil {
			verdicts[v] = dec.DecideRand(view, newCoins(streamSeed(seed, v)))
		} else {
			verdicts[v] = dec.Decide(view)
		}
	}
	return verdicts
}

// parityInstances generates the randomized instance suite for one seed.
func parityInstances(seed int64) []*graph.Labeled {
	labelsOf := func(g *graph.Graph, s int64) *graph.Labeled {
		return graph.RandomLabels(g, []graph.Label{"a", "b", "c"}, s)
	}
	n := 3 + int((seed%17+17)%17)
	// Note no high-symmetry instances with repeated labels (stars): the
	// code-hashing deciders below call View.Code, whose exact canonical
	// search is factorial on those — they are exercised by the refinement
	// benches in internal/graph instead.
	return []*graph.Labeled{
		graph.UniformlyLabeled(graph.Cycle(3+n), "u"),
		labelsOf(graph.Cycle(3+n), seed),
		labelsOf(graph.CompleteBinaryTree(2+int(seed%3+3)%3), seed+1),
		labelsOf(graph.Random(n, 0.25, seed+2), seed+3),
		labelsOf(graph.Grid(3, 2+n/4), seed+4),
	}
}

// parityDeciders returns the decider battery; the names key subtests.
func parityDeciders() map[string]Decider {
	hashOf := func(code string) int {
		sum := 0
		for _, b := range []byte(code) {
			sum += int(b)
		}
		return sum
	}
	return map[string]Decider{
		// Depends on everything an ID-using algorithm can see.
		"id-viewhash": {Name: "id-viewhash", Horizon: 2,
			Decide: func(view *graph.View) Verdict { return Verdict(hashOf(view.Code())%3 != 0) }},
		// Depends on the oblivious isomorphism class.
		"obl-viewhash": {Name: "obl-viewhash", Horizon: 2,
			Decide: func(view *graph.View) Verdict { return Verdict(hashOf(view.ObliviousCode())%3 != 0) }},
		// Structural decider in the style of the props package.
		"obl-degree": {Name: "obl-degree", Horizon: 1,
			Decide: func(view *graph.View) Verdict { return Verdict(view.G.Degree(view.Root) <= 2) }},
		// Horizon 0: the view is a single node.
		"obl-label": {Name: "obl-label", Horizon: 0,
			Decide: func(view *graph.View) Verdict { return Verdict(view.Labels[view.Root] != "c") }},
		// Randomized decider (nondeterministic per-node coins).
		"rand-coin": {Name: "rand-coin", Horizon: 1,
			DecideRand: func(view *graph.View, rng *rand.Rand) Verdict {
				return Verdict(rng.Intn(3) != 0 || view.G.Degree(view.Root) > 2)
			}},
		// NLD-style verifier: reads the certificate half of extended labels
		// (label + "\x01" + cert), accepting iff the root's certificate
		// matches its neighbour count parity.
		"nld-cert": {Name: "nld-cert", Horizon: 1,
			Decide: func(view *graph.View) Verdict {
				lab := view.Labels[view.Root]
				for i := 0; i < len(lab); i++ {
					if lab[i] == '\x01' {
						want := fmt.Sprint(view.G.Degree(view.Root) % 2)
						return Verdict(lab[i+1:] == want)
					}
				}
				return No
			}},
	}
}

// idDeciders names the battery's deciders that read view.IDs; the suites
// evaluate them on identifier-carrying instances.
var idDeciders = map[string]bool{"id-viewhash": true}

// withCerts extends labels with parity certificates, correct on even nodes.
func withCerts(l *graph.Labeled) *graph.Labeled {
	labels := make([]graph.Label, l.N())
	for v, lab := range l.Labels {
		cert := fmt.Sprint(l.G.Degree(v) % 2)
		if v%5 == 3 { // plant some wrong certificates
			cert = "x"
		}
		labels[v] = lab + "\x01" + cert
	}
	return graph.NewLabeled(l.G, labels)
}

func idsFor(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	ids := rng.Perm(3*n + 1)[:n]
	return ids
}

func TestSchedulerParity(t *testing.T) {
	schedulers := []Scheduler{
		Sequential, Sharded, ShardedWith(3), MessagePassing,
		ShardedMPWith(1), ShardedMPWith(2), ShardedMPWith(4), ShardedMPWith(8),
		ShardedMPPartitioned(3, graph.PartitionLevelContiguous),
	}
	property := func(seed int64) bool {
		for _, base := range parityInstances(seed) {
			for name, dec := range parityDeciders() {
				l := base
				if name == "nld-cert" {
					l = withCerts(base)
				}
				var in *graph.Instance
				if idDeciders[name] {
					in = graph.NewInstance(l, idsFor(l.N(), seed+9))
				}
				want := legacyEval(dec, l, in, seed)
				for _, sched := range schedulers {
					for _, dedup := range []bool{false, true} {
						opts := Options{Scheduler: sched, Dedup: dedup, Seed: seed}
						var out Outcome
						if in != nil {
							out = Eval(dec, in, opts)
						} else {
							out = EvalOblivious(dec, l, opts)
						}
						for v := range want {
							if out.Verdicts[v] != want[v] {
								t.Logf("seed=%d decider=%s sched=%s dedup=%v node=%d: got %s want %s",
									seed, name, sched.Name(), dedup, v, out.Verdicts[v], want[v])
								return false
							}
						}
						wantAccepted := true
						for _, w := range want {
							if w == No {
								wantAccepted = false
							}
						}
						if out.Accepted != wantAccepted {
							t.Logf("seed=%d decider=%s sched=%s: acceptance diverges", seed, name, sched.Name())
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 12}); err != nil {
		t.Error(err)
	}
}

// Early exit must agree with full evaluation on the acceptance bit for every
// scheduler, on accepted and rejected instances alike.
func TestEarlyExitAcceptanceParity(t *testing.T) {
	schedulers := []Scheduler{Sequential, Sharded, MessagePassing, ShardedMPWith(4)}
	property := func(seed int64) bool {
		for _, l := range parityInstances(seed) {
			for name, dec := range parityDeciders() {
				if name == "nld-cert" {
					l = withCerts(l)
				}
				var in *graph.Instance
				if idDeciders[name] {
					in = graph.NewInstance(l, idsFor(l.N(), seed+9))
				}
				eval := func(opts Options) Outcome {
					if in != nil {
						return Eval(dec, in, opts)
					}
					return EvalOblivious(dec, l, opts)
				}
				want := eval(Options{Seed: seed}).Accepted
				for _, sched := range schedulers {
					out := eval(Options{Scheduler: sched, EarlyExit: true, Seed: seed})
					if out.Accepted != want {
						t.Logf("seed=%d decider=%s sched=%s: early-exit acceptance %v, want %v",
							seed, name, sched.Name(), out.Accepted, want)
						return false
					}
					if out.Verdicts != nil {
						t.Log("early-exit outcome must not carry verdicts")
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// Dedup must never change verdicts, and on uniform structured instances it
// must actually deduplicate.
func TestDedupEffectiveOnStructuredInstances(t *testing.T) {
	dec := parityDeciders()["obl-viewhash"]
	for _, tc := range []struct {
		name string
		l    *graph.Labeled
	}{
		{"cycle", graph.UniformlyLabeled(graph.Cycle(300), "u")},
		{"tree", graph.UniformlyLabeled(graph.CompleteBinaryTree(7), "u")},
	} {
		out := EvalOblivious(dec, tc.l, Options{Dedup: true})
		if out.Stats.DedupHits == 0 || out.Stats.DistinctViews >= tc.l.N()/2 {
			t.Errorf("%s: dedup ineffective: %+v", tc.name, out.Stats)
		}
		plain := EvalOblivious(dec, tc.l, Options{})
		for v := range plain.Verdicts {
			if plain.Verdicts[v] != out.Verdicts[v] {
				t.Fatalf("%s: dedup changed verdict at node %d", tc.name, v)
			}
		}
	}
}
