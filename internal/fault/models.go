package fault

import (
	"fmt"
	"sort"

	"repro/internal/graph"
)

// LabelModel selects a transient-label-corruption model: how a victim node's
// label is rewritten. The models form an exposure gradient for verifiers —
// Randomize is always structurally detectable, Flip usually, Swap of equal
// labels never — which is exactly what the self-stabilization experiment
// measures.
type LabelModel int

// The label-corruption models.
const (
	// Flip replaces a victim's label with the next distinct label of the
	// instance's label alphabet.
	Flip LabelModel = iota
	// Swap exchanges the labels of victim pairs. Swapping identical labels
	// is a no-op — the invisible end of the exposure gradient.
	Swap
	// Randomize replaces a victim's label with a fresh garbage string that
	// no verifier's label grammar accepts.
	Randomize
)

// String returns the model's flag-facing name.
func (m LabelModel) String() string {
	switch m {
	case Flip:
		return "flip"
	case Swap:
		return "swap"
	case Randomize:
		return "randomize"
	}
	return fmt.Sprintf("LabelModel(%d)", int(m))
}

// ParseLabelModel resolves a flag-facing model name.
func ParseLabelModel(name string) (LabelModel, error) {
	switch name {
	case "flip":
		return Flip, nil
	case "swap":
		return Swap, nil
	case "randomize":
		return Randomize, nil
	}
	return 0, fmt.Errorf("fault: unknown label model %q (flip | swap | randomize)", name)
}

// CorruptLabels returns a copy of l with k node labels corrupted under the
// given model, plus the victim nodes in selection order. Victims and
// replacement labels are drawn from the seed's SiteLabel stream, so the same
// (l, model, k, seed) always corrupts the same nodes the same way. k is
// clamped to n (and, for Swap, rounded down to a whole number of pairs); a
// non-positive k returns an untouched copy.
func CorruptLabels(l *graph.Labeled, model LabelModel, k int, seed int64) (*graph.Labeled, []int) {
	out := l.Clone()
	n := out.N()
	if k > n {
		k = n
	}
	if model == Swap {
		k -= k % 2
	}
	if k <= 0 || n == 0 {
		return out, nil
	}
	s := streamFor(seed, SiteLabel, 0, 0, 0)
	// Partial Fisher–Yates: the first k entries of a uniform permutation.
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + s.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	victims := append([]int(nil), idx[:k]...)

	switch model {
	case Flip:
		alphabet := labelAlphabet(l)
		for _, v := range victims {
			out.Labels[v] = nextLabel(alphabet, out.Labels[v])
		}
	case Swap:
		for i := 0; i+1 < len(victims); i += 2 {
			a, b := victims[i], victims[i+1]
			out.Labels[a], out.Labels[b] = out.Labels[b], out.Labels[a]
		}
	case Randomize:
		for _, v := range victims {
			vs := streamFor(seed, SiteLabel, v, 1, 0)
			out.Labels[v] = graph.Label(fmt.Sprintf("\x00corrupt-%016x", vs.Uint64()))
		}
	default:
		panic(fmt.Sprintf("fault: unknown label model %d", int(model)))
	}
	return out, victims
}

// labelAlphabet is the sorted distinct label set of an instance.
func labelAlphabet(l *graph.Labeled) []graph.Label {
	seen := make(map[graph.Label]bool, 8)
	var alphabet []graph.Label
	for _, lab := range l.Labels {
		if !seen[lab] {
			seen[lab] = true
			alphabet = append(alphabet, lab)
		}
	}
	sort.Slice(alphabet, func(i, j int) bool { return alphabet[i] < alphabet[j] })
	return alphabet
}

// nextLabel is Flip's replacement rule: the cyclic successor in the alphabet,
// or a derived marker when the alphabet has a single label (there is no
// distinct label to flip to).
func nextLabel(alphabet []graph.Label, lab graph.Label) graph.Label {
	if len(alphabet) < 2 {
		return lab + "\x00flip"
	}
	i := sort.Search(len(alphabet), func(i int) bool { return alphabet[i] >= lab })
	return alphabet[(i+1)%len(alphabet)]
}
