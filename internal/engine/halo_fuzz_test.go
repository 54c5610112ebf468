package engine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// FuzzHaloRingRoundTrip checks the halo wire format from both sides.
// Rings that encodeHaloRing builds from a random labelled host, with and
// without identifiers, decode back to the same records and label
// dictionary, across consecutive rings of one link, each row capped at its
// length so that no row can grow into the next in the ring's arena. And
// decodeHaloRing never panics on arbitrary bytes: it decodes them, rows
// capped alike, or returns an error with its inputs untouched.
func FuzzHaloRingRoundTrip(f *testing.F) {
	f.Add(int64(1), false, []byte{})
	f.Add(int64(2), true, []byte{0, 1, 1, 0, 1, 'a', 2, 1, 1})
	f.Add(int64(3), false, []byte{0, 1, 1, 2, 0})                      // back-reference past the dictionary
	f.Add(int64(4), true, []byte{0, 1, 1, 0, 100, 'a'})                // label longer than the payload
	f.Add(int64(5), false, []byte{0, 1, 1, 1, 0xff, 0xff, 0xff, 0x7f}) // row degree longer than the payload
	f.Add(int64(6), false, []byte{0, 0x80})                            // truncated varint
	f.Add(int64(7), true, []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Fuzz(func(t *testing.T, seed int64, withIDs bool, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(40)
		l := graph.RandomLabels(graph.Random(n, rng.Float64()*0.5, seed),
			[]graph.Label{"", "a", "bb", "ccc", "ünï"}, seed+1)
		var in *graph.Instance
		if withIDs {
			ids := rng.Perm(8 * n)[:n]
			for i := range ids {
				ids[i] <<= 24 // multi-byte varints
			}
			in = graph.NewInstance(l, ids)
		}
		j, err := newJob(cheapDecider(1), l, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// One link's rings: the nodes split at random into disjoint
		// ascending sets, one per round, decoded in the order sent.
		rings := make([][]int32, 1+rng.Intn(3))
		for v := 0; v < n; v++ {
			r := rng.Intn(len(rings))
			rings[r] = append(rings[r], int32(v))
		}
		encDict := map[graph.Label]int{}
		var (
			dict []graph.Label
			recs []ghostRec
			sent []int32
		)
		for round, ring := range rings {
			if len(ring) == 0 {
				continue
			}
			sent = append(sent, ring...)
			payload := encodeHaloRing(j, encDict, haloRing{round: round, nodes: ring}, withIDs)
			if recs, dict, err = decodeHaloRing(payload, dict, withIDs, recs); err != nil {
				t.Fatalf("round %d: an encoded ring fails to decode: %v", round, err)
			}
		}
		if len(recs) != n || len(dict) != len(encDict) {
			t.Fatalf("decoded %d records and %d labels, want %d and %d", len(recs), len(dict), n, len(encDict))
		}
		for lab, i := range encDict {
			if dict[i] != lab {
				t.Fatalf("dictionary entry %d is %q, want %q", i, dict[i], lab)
			}
		}
		for i, rec := range recs {
			v := int(sent[i])
			if rec.node != int32(v) || rec.label != l.Labels[v] || !slices.Equal(rec.row, l.G.Neighbors(v)) {
				t.Fatalf("record %d = %+v, want node %d label %q row %v", i, rec, v, l.Labels[v], l.G.Neighbors(v))
			}
			if withIDs && rec.id != in.IDs[v] {
				t.Fatalf("record %d has identifier %d, want %d", i, rec.id, in.IDs[v])
			}
			if cap(rec.row) != len(rec.row) {
				t.Fatalf("record %d's row has capacity %d beyond its length %d", i, cap(rec.row), len(rec.row))
			}
		}

		// Arbitrary bytes, read against the dictionary the link built.
		prior := []ghostRec{{node: 7}}
		got, gotDict, err := decodeHaloRing(data, dict, withIDs, prior)
		if err != nil && (len(got) != len(prior) || len(gotDict) != len(dict)) {
			t.Fatalf("failed decode returned %d records and %d labels, want its inputs' %d and %d",
				len(got), len(gotDict), len(prior), len(dict))
		}
		for i, rec := range got[len(prior):] {
			if cap(rec.row) != len(rec.row) {
				t.Fatalf("arbitrary bytes: record %d's row has capacity %d beyond its length %d", i, cap(rec.row), len(rec.row))
			}
		}
	})
}

// TestDecodeHaloRingErrors pins each way a corrupt ring fails to decode,
// against a link dictionary holding one label.
func TestDecodeHaloRingErrors(t *testing.T) {
	overlong := append(slices.Repeat([]byte{0xff}, 10), 0x01)
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"truncated varint", []byte{0, 0x80}},
		{"overlong varint", append([]byte{0}, overlong...)},
		{"node count past the end", []byte{0, 100, 1}},
		{"back-reference past the dictionary", []byte{0, 1, 1, 2, 0}},
		{"label past the end", []byte{0, 1, 1, 0, 100, 'b'}},
		{"row degree past the end", []byte{0, 1, 1, 1, 0xff, 0xff, 0xff, 0x7f}},
		{"trailing bytes", []byte{0, 1, 1, 1, 0, 9}},
	} {
		dict := []graph.Label{"a"}
		recs, gotDict, err := decodeHaloRing(tc.payload, dict, false, nil)
		if err == nil || len(recs) != 0 || len(gotDict) != 1 {
			t.Errorf("%s: got %d records, %d labels, err %v; want an error and the inputs back", tc.name, len(recs), len(gotDict), err)
		}
	}
	recs, _, err := decodeHaloRing([]byte{0, 1, 1, 1, 0}, []graph.Label{"a"}, false, nil)
	if err != nil || len(recs) != 1 || recs[0].label != "a" || len(recs[0].row) != 0 {
		t.Errorf("well-formed ring: got %+v, %v", recs, err)
	}
}

// TestImportHaloCorruptRing pins what a shard does with a ring that fails
// to decode: the ring and every later ring of its link are lost, as if
// dropped, the shard's other links still import, and corrupt reports it so
// the shard degrades its rim nodes to the full-host fallback.
func TestImportHaloCorruptRing(t *testing.T) {
	l := graph.RandomLabels(graph.Cycle(8), []graph.Label{"a", "bb"}, 3)
	j, err := newJob(cheapDecider(2), l, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	link := func(corruptRound int, rings ...[]int32) *haloLink {
		hl := &haloLink{}
		dict := map[graph.Label]int{}
		for r, nodes := range rings {
			ring := haloRing{round: r, nodes: nodes}
			payload := encodeHaloRing(j, dict, ring, false)
			if r == corruptRound {
				payload = payload[:len(payload)-1]
			}
			hl.sends = append(hl.sends, haloSend{ring: ring, copies: 1, payload: payload})
		}
		return hl
	}
	for _, tc := range []struct {
		name    string
		corrupt int // round of link a's ring to truncate; -1 for none
		want    []int32
	}{
		{"clean", -1, []int32{0, 1, 2, 3, 5}},
		{"second ring", 1, []int32{0, 1, 5}},
		{"first ring", 0, []int32{5}},
	} {
		c := counters{roundGhosts: make([]int, 3)}
		ghosts, corrupt := importHalo([]*haloLink{
			link(tc.corrupt, []int32{0, 1}, []int32{2}, []int32{3}),
			link(-1, []int32{5}),
		}, false, &c)
		var got []int32
		for _, g := range ghosts {
			got = append(got, g.node)
		}
		if !slices.Equal(got, tc.want) || corrupt != (tc.corrupt >= 0) || c.ghosts != len(tc.want) {
			t.Errorf("%s: imported %v (%d counted), corrupt %v; want %v, corrupt %v",
				tc.name, got, c.ghosts, corrupt, tc.want, tc.corrupt >= 0)
		}
	}
}
