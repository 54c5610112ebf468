package family

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/graph"
)

// catalogueGolden pins every catalogue entry's decider name, horizon, kind
// and labels, as the two commands built them before the catalogue existed.
// Name and Horizon key the verdict cache and the persisted store, and the
// labels decide what a served verdict means, so none of them may drift. The
// label digests are indexed by family and then by seed 1, 2, 7.
var catalogueGolden = []struct {
	name, decider string
	horizon       int
	randomized    bool
	labels        map[string][3]uint64
}{
	{"3col", "3col-verifier", 1, false, map[string][3]uint64{
		"cycle":   {0x73c71224855dcd3f, 0xd1e7eec955147d14, 0xfd9ac0cb5fcd3fb5},
		"path":    {0x8fadcfa30890bfc4, 0x6521ac51a4ef7116, 0x0d4019a8a851776e},
		"grid":    {0x5055e546a8153f6e, 0xb6ddb0142dd79f9d, 0x93c83ef1c5a28986},
		"tree":    {0x1efd77c51cff4f8c, 0xcefa0d666d01fb67, 0xcec8743c934f6424},
		"pyramid": {0x500c294d11597dae, 0x252d106df8ebec06, 0x6ea7769ff86f68df},
		"random":  {0x4221c63b58cab924, 0xb4efb89296adb2a5, 0x674f486ea7135f6c},
	}},
	{"mis", "mis-verifier", 1, false, map[string][3]uint64{
		"cycle":   {0xf562be639f984cbc, 0x99c2e9971c829e8d, 0xdf6f7a2603892434},
		"path":    {0x8d65ff8e96beccbd, 0xb8add2dc36811d74, 0xd808fb98e65d42d5},
		"grid":    {0x0c508e91331e2235, 0x830a8639019da2b5, 0xc33f0bca2e636205},
		"tree":    {0xec8dddb6f295141d, 0xf3b1f7db3ebd209c, 0xf44301e813449f4d},
		"pyramid": {0xf4197c14b8c5f175, 0x474b0f0e307caa4c, 0xed73bb994b805004},
		"random":  {0x29dcbc5fc3cb4a8d, 0xcff851b77cdeb5bc, 0x90d8c898b778bfb4},
	}},
	{"degree2", "max-degree-verifier-2", 1, false, uniformGolden},
	{"triangle-free", "triangle-free-verifier", 1, false, uniformGolden},
	{"forest", "forest-cert-verifier", 1, false, map[string][3]uint64{
		"cycle":   {0xddfc3edd0e9372b3, 0xddfc3edd0e9372b3, 0xddfc3edd0e9372b3},
		"path":    {0x16277c6fafd211e5, 0x16277c6fafd211e5, 0x16277c6fafd211e5},
		"grid":    {0x60389f80899ee3c5, 0x60389f80899ee3c5, 0x60389f80899ee3c5},
		"tree":    {0xcd53a08c2b4bc1e5, 0xcd53a08c2b4bc1e5, 0xcd53a08c2b4bc1e5},
		"pyramid": {0x9ccc9f6de8bf1b2f, 0x9ccc9f6de8bf1b2f, 0x9ccc9f6de8bf1b2f},
		"random":  {0xbbfb6b493f29e37c, 0xec273b17c6a398c6, 0x4d6274cfef739b64},
	}},
	{"coin", "coin(1/64)", 0, true, uniformGolden},
}

// uniformGolden is the digest of the empty-labelled hosts (the random
// family's host depends on the seed, its all-empty labels do not).
var uniformGolden = map[string][3]uint64{
	"cycle":   {0x5467b0da1d106495, 0x5467b0da1d106495, 0x5467b0da1d106495},
	"path":    {0xe604823a249029bf, 0xe604823a249029bf, 0xe604823a249029bf},
	"grid":    {0x88201fb960ff6465, 0x88201fb960ff6465, 0x88201fb960ff6465},
	"tree":    {0x2eb09ce4c4320587, 0x2eb09ce4c4320587, 0x2eb09ce4c4320587},
	"pyramid": {0x98b2b1418e80a50f, 0x98b2b1418e80a50f, 0x98b2b1418e80a50f},
	"random":  {0x042a3110292eaa1d, 0x042a3110292eaa1d, 0x042a3110292eaa1d},
}

// labelDigest is FNV-1a over the labels in node order, each followed by a
// zero byte.
func labelDigest(l *graph.Labeled) uint64 {
	h := fnv.New64a()
	for _, lab := range l.Labels {
		h.Write([]byte(lab))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// TestDeciderCatalogueGolden checks every catalogue entry on every family
// and seed against the golden record, and that the table lists exactly the
// golden names, in order.
func TestDeciderCatalogueGolden(t *testing.T) {
	families := []struct {
		kind string
		n    int
	}{{"cycle", 12}, {"path", 9}, {"grid", 4}, {"tree", 3}, {"pyramid", 2}, {"random", 30}}
	var names []string
	for _, want := range catalogueGolden {
		names = append(names, want.name)
		for _, f := range families {
			for i, seed := range []int64{1, 2, 7} {
				_, build, err := New(f.kind, f.n, seed)
				if err != nil {
					t.Fatal(err)
				}
				g := build()
				l, dec, err := Decider(want.name, g, seed)
				if err != nil {
					t.Fatalf("%s: %v", want.name, err)
				}
				at := fmt.Sprintf("%s on %s seed %d", want.name, f.kind, seed)
				if dec.Name != want.decider || dec.Horizon != want.horizon {
					t.Errorf("%s: decider %q horizon %d, want %q horizon %d", at, dec.Name, dec.Horizon, want.decider, want.horizon)
				}
				if (dec.DecideRand != nil) != want.randomized || (dec.Decide != nil) == want.randomized {
					t.Errorf("%s: Decide set %v, DecideRand set %v, want randomized=%v", at, dec.Decide != nil, dec.DecideRand != nil, want.randomized)
				}
				if l.G != g {
					t.Errorf("%s: labelled a different host", at)
				}
				if got := labelDigest(l); got != want.labels[f.kind][i] {
					t.Errorf("%s: label digest %#016x, want %#016x", at, got, want.labels[f.kind][i])
				}
			}
		}
	}
	if got := DeciderNames(); strings.Join(got, " ") != strings.Join(names, " ") {
		t.Errorf("DeciderNames() = %v, want %v", got, names)
	}
}

// An unknown decider name is an error that lists every name.
func TestDeciderUnknownListsNames(t *testing.T) {
	_, _, err := Decider("mystery", nil, 1)
	if err == nil {
		t.Fatal("unknown decider accepted")
	}
	for _, name := range DeciderNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}
