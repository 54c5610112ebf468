package family

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/props"
)

// deciders is the catalogue: every decider the commands serve, declared
// once, in the order DeciderNames lists them. Each entry pairs a name with
// the labelling its verifier reads and the engine decider itself, built
// through the same local adapters as library callers use. The decider's Name
// and Horizon key both the verdict cache and the persisted store, so an
// entry's Name, Horizon and labels must not change under the same name.
var deciders = []struct {
	name  string
	label func(g *graph.Graph, seed int64) *graph.Labeled
	dec   engine.Decider
}{
	{"3col", drawn("0", "1", "2"), local.EngineObliviousDecider(props.ThreeColoringVerifier())},
	{"mis", drawn("0", "1"), local.EngineObliviousDecider(props.MISVerifier())},
	{"degree2", uniform, local.EngineObliviousDecider(props.BoundedDegreeVerifier(2))},
	{"triangle-free", uniform, local.EngineObliviousDecider(props.TriangleFreeVerifier())},
	// BFS-distance forest certificates: the horizon-1 verifier accepts a
	// forest at every node and rejects some node of any host with a cycle.
	{"forest", func(g *graph.Graph, _ int64) *graph.Labeled {
		return graph.NewLabeled(g, props.CertifyForest(g))
	}, local.EngineObliviousDecider(props.ForestCertVerifier())},
	// Randomized: a node accepts unless its 1-in-64 coin draw is zero.
	{"coin", uniform, local.EngineRandomizedDecider(local.RandomizedFunc("coin(1/64)", 0,
		func(_ *graph.View, rng *rand.Rand) local.Verdict { return local.Verdict(rng.Intn(64) != 0) }))},
}

// uniform gives every node the empty label.
func uniform(g *graph.Graph, _ int64) *graph.Labeled { return graph.UniformlyLabeled(g, "") }

// drawn labels every node with a seeded uniform draw from alphabet.
func drawn(alphabet ...graph.Label) func(*graph.Graph, int64) *graph.Labeled {
	return func(g *graph.Graph, seed int64) *graph.Labeled { return graph.RandomLabels(g, alphabet, seed) }
}

// Decider labels host g for the named decider and returns the labelled host
// with the decider: Decide is set for the deterministic verifiers, and
// DecideRand for coin. seed draws the random labels of 3col and mis. An
// unknown name is an error that lists every name.
func Decider(name string, g *graph.Graph, seed int64) (*graph.Labeled, engine.Decider, error) {
	for _, d := range deciders {
		if d.name == name {
			return d.label(g, seed), d.dec, nil
		}
	}
	return nil, engine.Decider{}, fmt.Errorf("unknown decider %q (%s)", name, strings.Join(DeciderNames(), " | "))
}

// DeciderNames lists the catalogue's decider names in declaration order.
func DeciderNames() []string {
	names := make([]string, len(deciders))
	for i, d := range deciders {
		names[i] = d.name
	}
	return names
}
