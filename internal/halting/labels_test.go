package halting

import (
	"slices"
	"testing"
	"unsafe"

	"repro/internal/graph"
	"repro/internal/tree"
	"repro/internal/turing"
)

// checkSharedLabels fails unless every distinct label string of l is backed
// by exactly one copy: the builders format each distinct label once.
func checkSharedLabels(t *testing.T, name string, l *graph.Labeled) {
	t.Helper()
	values := map[graph.Label]bool{}
	backing := map[*byte]bool{}
	for _, lab := range l.Labels {
		values[lab] = true
		backing[unsafe.StringData(lab)] = true
	}
	if len(backing) != len(values) {
		t.Fatalf("%s: %d distinct labels held in %d copies", name, len(values), len(backing))
	}
}

// checkGridLabels compares every node of a BuildG or BuildWindowG assembly
// with NodeLabel at its coordinates.
func checkGridLabels(t *testing.T, name string, asm *Assembly, table *turing.Table) {
	t.Helper()
	p := asm.Params
	seen := 0
	for y := range asm.TableNode {
		for x, v := range asm.TableNode[y] {
			if want := p.NodeLabel(table.Cell(y, x), x%3, y%3); asm.Labeled.Labels[v] != want {
				t.Fatalf("%s: table (%d,%d) labelled %q, want %q", name, y, x, asm.Labeled.Labels[v], want)
			}
			seen++
		}
	}
	for i, pf := range asm.Fragments {
		for y, row := range asm.FragmentNodes[i] {
			for x, v := range row {
				want := p.NodeLabel(pf.Fragment.Cells[y][x], (x+pf.PhaseX)%3, (y+pf.PhaseY)%3)
				if asm.Labeled.Labels[v] != want {
					t.Fatalf("%s: fragment %d (%d,%d) labelled %q, want %q", name, i, y, x, asm.Labeled.Labels[v], want)
				}
				seen++
			}
		}
	}
	if seen != asm.Labeled.N() {
		t.Fatalf("%s: checked %d of %d nodes", name, seen, asm.Labeled.N())
	}
	checkSharedLabels(t, name, asm.Labeled)
}

// Every label of BuildG and BuildWindowG equals NodeLabel at its
// coordinates, across the machine library.
func TestGridBuildLabelsMatchNodeLabel(t *testing.T) {
	for _, m := range turing.Library() {
		p := tinyParams(m, 25)
		if asm, err := p.BuildG(); err == nil {
			table, err := turing.BuildTable(m, p.MaxSteps)
			if err != nil {
				t.Fatal(err)
			}
			checkGridLabels(t, m.Name+"/G", asm, table)
		}
		asm, err := p.BuildWindowG()
		if err != nil {
			t.Fatal(err)
		}
		table, err := turing.PartialTable(m, p.WindowSide(), p.WindowSide())
		if err != nil {
			t.Fatal(err)
		}
		checkGridLabels(t, m.Name+"/window", asm, table)
	}
}

// Every label of BuildPyramidalG equals NodeLabel on the base grids and
// PyrLabel on the pyramid layers above them.
func TestPyramidalBuildLabelsMatchNodeLabel(t *testing.T) {
	built := 0
	for _, m := range turing.Library() {
		p := tinyParams(m, 12)
		asm, err := p.BuildPyramidalG()
		if err != nil {
			continue // runtime+1 is not a power of two, or the machine never halts
		}
		built++
		table, err := turing.BuildTable(m, p.MaxSteps)
		if err != nil {
			t.Fatal(err)
		}
		labels := asm.Labeled.Labels
		want := slices.Repeat([]graph.Label{p.PyrLabel()}, len(labels))
		for y, row := range asm.TableBase {
			for x, v := range row {
				want[v] = p.NodeLabel(table.Cell(y, x), x%3, y%3)
			}
		}
		offset := len(labels) - len(asm.Fragments)*tree.NewPyramid(2).N()
		frag := tree.NewPyramid(2)
		for i, pf := range asm.Fragments {
			base := offset + i*frag.N()
			for y := 0; y < PyramidFragmentSide; y++ {
				for x := 0; x < PyramidFragmentSide; x++ {
					want[base+frag.BaseNode(x, y)] = p.NodeLabel(pf.Fragment.Cells[y][x], x%3, y%3)
				}
			}
			if asm.FragmentApex[i] != base+frag.Apex() {
				t.Fatalf("%s: fragment %d apex %d, want %d", m.Name, i, asm.FragmentApex[i], base+frag.Apex())
			}
		}
		for v, lab := range labels {
			if lab != want[v] {
				t.Fatalf("%s: node %d labelled %q, want %q", m.Name, v, lab, want[v])
			}
		}
		checkSharedLabels(t, m.Name+"/pyramidal", asm.Labeled)
	}
	if built < 2 {
		t.Fatalf("only %d library machines built a pyramidal G", built)
	}
}

// generatorAssembly rebuilds the assembly GenerateNeighborhoods sweeps.
func generatorAssembly(t *testing.T, p Params) *Assembly {
	t.Helper()
	budget := p.WindowSide() - 1
	build := p.BuildWindowG
	if _, halted := turing.Runtime(p.Machine, budget); halted {
		short := p
		short.MaxSteps = budget
		build = short.BuildG
	}
	asm, err := build()
	if err != nil {
		t.Fatal(err)
	}
	return asm
}

// Generator samples are field for field the views ObliviousViewOf extracts
// at the same node, and each reproduces the code it is filed under — on
// both of B's paths (a machine that halts inside the window and one that
// does not).
func TestGeneratorSamplesMatchObliviousViewOf(t *testing.T) {
	for _, m := range []*turing.Machine{turing.HaltWith('1'), turing.Looper(), turing.Counter(8, '1')} {
		p := tinyParams(m, 15)
		gen, err := p.GenerateNeighborhoods()
		if err != nil {
			t.Fatal(err)
		}
		asm := generatorAssembly(t, p)
		big := 0
		for code, sample := range gen.Samples {
			want := graph.ObliviousViewOf(asm.Labeled, sample.Original[sample.Root], p.R)
			if !sample.Labeled.Equal(want.Labeled) || sample.Root != want.Root || sample.Radius != want.Radius ||
				sample.IDs != nil || !slices.Equal(sample.Original, want.Original) {
				t.Fatalf("%s: sample at node %d differs from ObliviousViewOf", m.Name, sample.Original[sample.Root])
			}
			if got := string(viewCode(sample, ExactCodeLimit).Bytes); got != code {
				t.Fatalf("%s: sample at node %d does not reproduce its code", m.Name, sample.Original[sample.Root])
			}
			if sample.N() > ExactCodeLimit {
				big++
			}
		}
		if big == 0 {
			t.Fatalf("%s: no sample above the exact-code limit", m.Name)
		}
	}
}
