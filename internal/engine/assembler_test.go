package engine

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestRankIndexMatchesBinarySearch checks the sub-host rank index against
// slices.BinarySearch, the lookup it replaced, on random ascending sets over
// hosts of 1–300 nodes: sets that straddle and fill 64-bit words, the empty
// set and the whole host, each built over the last with no clearing in
// between, queried at every address of the host, and at addresses below 0
// and at or above n.
func TestRankIndexMatchesBinarySearch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 300; n++ {
		all := make([]int32, n)
		for v := range all {
			all[v] = int32(v)
		}
		sets := [][]int32{nil, all, {0}, {int32(n - 1)}}
		// A word's first and last members, and the members of a whole word.
		for w := 0; w*64 < n; w++ {
			sets = append(sets, all[w*64:min(n, w*64+64)], []int32{int32(w * 64), int32(min(n, w*64+64) - 1)})
		}
		for range 4 {
			var set []int32
			density := rng.Float64()
			for _, v := range all {
				if rng.Float64() < density {
					set = append(set, v)
				}
			}
			sets = append(sets, set)
		}
		queries := []int32{math.MinInt32, -65, -64, -1, int32(n), int32(n + 1), int32(n + 63), int32(n + 64), math.MaxInt32}
		queries = append(queries, all...)
		var x rankIndex
		for _, set := range sets {
			x.build(set, n)
			for _, u := range queries {
				want, wantOK := slices.BinarySearch(set, u)
				got, gotOK := x.rank(u)
				if gotOK != wantOK || (wantOK && got != want) {
					t.Fatalf("n=%d set %v: rank(%d) = %d, %v; want %d, %v", n, set, u, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

// TestAssemblerFiltersForeignAddresses hands host a ghost record whose row
// holds addresses outside the host and host nodes outside ext, beside its
// true neighbours, and checks that every such entry is dropped exactly as a
// binary search of ext drops it, without a panic, with and without
// identifiers.
func TestAssemblerFiltersForeignAddresses(t *testing.T) {
	const n = 10
	l := graph.RandomLabels(graph.Cycle(n), []graph.Label{"a", "b"}, 1)
	ids := make([]int, n)
	for v := range ids {
		ids[v] = 100 + v
	}
	ext := []int32{2, 3, 4, 5}
	ghost := ghostRec{node: 3, label: "ghost", id: 7,
		row: []int32{math.MinInt32, -7, -1, 2, 4, 7, n, n + 60, math.MaxInt32}}
	for _, in := range []*graph.Instance{nil, graph.NewInstance(l, ids)} {
		j, err := newJob(cheapDecider(1), l, in, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var a assembler
		a.host(j, ext, []ghostRec{ghost})
		for i, v := range ext {
			row, label := l.G.Neighbors(int(v)), l.Labels[v]
			if v == ghost.node {
				row, label = ghost.row, ghost.label
			}
			var want []int32
			for _, u := range row {
				if li, ok := slices.BinarySearch(ext, u); ok {
					want = append(want, int32(li))
				}
			}
			if got := a.g.Neighbors(i); !slices.Equal(got, want) {
				t.Errorf("with IDs %v: sub-host row of %d = %v, want %v", in != nil, v, got, want)
			}
			if a.l.Labels[i] != label {
				t.Errorf("with IDs %v: sub-host label of %d = %q, want %q", in != nil, v, a.l.Labels[i], label)
			}
			if in != nil && v != ghost.node && a.ids[i] != ids[v] {
				t.Errorf("sub-host identifier of %d = %d, want %d", v, a.ids[i], ids[v])
			}
			if li := a.local(v); li != i {
				t.Errorf("local(%d) = %d, want %d", v, li, i)
			}
		}
		if in != nil && a.ids[1] != ghost.id {
			t.Errorf("ghost identifier = %d, want %d", a.ids[1], ghost.id)
		}
		if view := a.at(j, ext, a.local(ghost.node)); !slices.Equal(view.Original, []int{3, 2, 4}) {
			t.Errorf("with IDs %v: ghost's view covers %v, want [3 2 4]", in != nil, view.Original)
		}
	}
}
