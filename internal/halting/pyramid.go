package halting

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/tree"
	"repro/internal/turing"
)

// This file implements the Appendix A augmentation: pyramidal execution
// tables and fragments. Attaching a layered quadtree ("pyramid") on top of
// each grid makes the grid's global structure locally checkable — each
// pyramid has a unique apex, which fixes the global geometry (steps 1-6 of
// the appendix's checkability procedure).
//
// Scale note (documented substitution): the paper pads the execution table
// to side 2^h and uses fragments of side 2^(3r), far beyond any in-memory
// enumeration (8x8 fragments alone have ~10^8 labellings). We reproduce the
// construction shape with power-of-two tables and 4x4 (= 2^2) fragments;
// the checkability mechanics — apex uniqueness, layer structure, gluing —
// are identical, and the fragment-side scaling only affects how large a
// horizon the obfuscation fools (r=1 here).

// PyramidalAssembly is G(M, r) with pyramids attached to the table and to
// every placed fragment.
type PyramidalAssembly struct {
	Params  Params
	Labeled *graph.Labeled
	Pivot   int
	// TableBase[y][x] is the node of table cell (y, x); TablePyramid maps
	// pyramid coordinates (x, y, z>0) of the table pyramid to nodes.
	TableBase    [][]int
	TableApex    int
	Fragments    []PlacedFragment
	FragmentApex []int
	Truncated    bool
}

// PyrLabel is the label of pyramid (non-base) nodes: the universal (M, r)
// component plus a layer marker (the appendix gives pyramid nodes no labels
// beyond the universal one; the marker mirrors "no per-node content").
func (p Params) PyrLabel() graph.Label { return p.GMLabel() + "|pyr" }

// PyramidFragmentSide is the fragment side used by the pyramidal
// construction (2^2; see the scale note above).
const PyramidFragmentSide = 4

// BuildPyramidalG constructs the pyramidal G(M, r). The machine's execution
// table side s+1 must be a power of two (the paper's simplifying assumption;
// Counter machines of suitable length satisfy it).
func (p Params) BuildPyramidalG() (*PyramidalAssembly, error) {
	table, err := turing.BuildTable(p.Machine, p.MaxSteps)
	if err != nil {
		return nil, err
	}
	side := table.Width()
	h := 0
	for 1<<h < side {
		h++
	}
	if 1<<h != side {
		return nil, fmt.Errorf("halting: table side %d is not a power of two", side)
	}

	res := turing.EnumerateFragments(p.Machine, PyramidFragmentSide, PyramidFragmentSide, p.FragmentLimit)
	var placed []PlacedFragment
	for _, f := range res.Fragments {
		for _, spec := range f.GluingVariants() {
			// One phase per fragment in the pyramidal variant: the pyramid
			// geometry (not the mod-3 labels) carries the orientation, and
			// keeping one phase keeps sizes reviewable.
			placed = append(placed, PlacedFragment{Fragment: f, Spec: spec})
		}
	}

	// Count nodes: pyramid over the table + pyramid over each fragment.
	tablePyr := tree.NewPyramid(h)
	fragH := 2 // 4x4 base
	fragPyrProto := tree.NewPyramid(fragH)
	total := tablePyr.N() + len(placed)*fragPyrProto.N()
	b := graph.NewBuilderHint(total, 3*total)
	labels := make([]graph.Label, total)
	names := p.newNodeLabels()

	// Table pyramid: base nodes carry cell labels; upper layers carry the
	// universal label. Base-grid ids come from the arithmetic BaseNode
	// formula, and the upper layers are exactly the id range from
	// LevelOffset(1) up — no per-node coordinate dispatch.
	offset := 0
	tableBase := make([][]int, side)
	for y := 0; y < side; y++ {
		tableBase[y] = make([]int, side)
		for x := 0; x < side; x++ {
			node := offset + tablePyr.BaseNode(x, y)
			tableBase[y][x] = node
			labels[node] = names.cell(table.Cell(y, x), x%3, y%3)
		}
	}
	for v := tablePyr.LevelOffset(1); v < tablePyr.N(); v++ {
		labels[offset+v] = names.pyr
	}
	b.AddGraphAt(tablePyr.G, offset)
	tableApex := offset + tablePyr.Apex()
	pivot := tableBase[0][0]
	offset += tablePyr.N()

	// Fragment pyramids.
	fragmentApex := make([]int, len(placed))
	for i, pf := range placed {
		pyr := fragPyrProto
		base := make([][]int, PyramidFragmentSide)
		for y := range base {
			base[y] = make([]int, PyramidFragmentSide)
			for x := range base[y] {
				node := offset + pyr.BaseNode(x, y)
				base[y][x] = node
				labels[node] = names.cell(pf.Fragment.Cells[y][x], x%3, y%3)
			}
		}
		for v := pyr.LevelOffset(1); v < pyr.N(); v++ {
			labels[offset+v] = names.pyr
		}
		b.AddGraphAt(pyr.G, offset)
		fragmentApex[i] = offset + pyr.Apex()
		for _, cell := range pf.Fragment.BorderCells(pf.Spec) {
			b.AddEdge(pivot, base[cell[0]][cell[1]])
		}
		offset += pyr.N()
	}

	return &PyramidalAssembly{
		Params:       p,
		Labeled:      graph.NewLabeled(b.Build(), labels),
		Pivot:        pivot,
		TableBase:    tableBase,
		TableApex:    tableApex,
		Fragments:    placed,
		FragmentApex: fragmentApex,
		Truncated:    res.Truncated,
	}, nil
}

// CheckPyramidal runs the Appendix A checkability steps on the assembly
// (globally, against the bookkeeping; tests corrupt assemblies and confirm
// rejection):
//
//	step 1: all nodes carry the same (M, r);
//	step 2: each pyramid has consistent quadtree structure and a unique apex;
//	step 3: grid labelling follows the window rules with consistent
//	        orientation;
//	step 4: each grid is fragment-like (glued top row) or the unique
//	        execution table (pivot is the only glued cell holder);
//	step 5: the pivot is globally unique;
//	step 6: the fragment collection equals C(M, r) (Lemma 2).
func (a *PyramidalAssembly) CheckPyramidal() error {
	p := a.Params

	// Step 1: labels parse with the right prefix, and the assembly is one
	// component (every fragment pyramid is glued to the pivot; a detached
	// grid could never be certified by the table's apex). IsConnected runs
	// on pooled graph.Traversal scratch, so repeated checks over an
	// instance family reuse BFS buffers instead of allocating per call.
	if !a.Labeled.G.IsConnected() {
		return fmt.Errorf("halting: pyramidal assembly is disconnected")
	}
	prefix := p.GMLabel()
	for v, lab := range a.Labeled.Labels {
		if len(lab) < len(prefix) || lab[:len(prefix)] != prefix {
			return fmt.Errorf("halting: node %d lacks the (M,r) label", v)
		}
	}

	// Step 2: apexes are unique per pyramid: degree-4 pyramid tops with no
	// higher layer. We check the table pyramid apex explicitly.
	if a.Labeled.Labels[a.TableApex] != p.PyrLabel() {
		return fmt.Errorf("halting: table apex mislabeled")
	}

	// Step 3: window rules on the table base.
	side := len(a.TableBase)
	rows := make([][]turing.Cell, side)
	for y := 0; y < side; y++ {
		rows[y] = make([]turing.Cell, side)
		for x := 0; x < side; x++ {
			cell, x3, y3, err := p.ParseNodeLabel(a.Labeled.Labels[a.TableBase[y][x]])
			if err != nil {
				return err
			}
			if x3 != x%3 || y3 != y%3 {
				return fmt.Errorf("halting: orientation mismatch at table (%d,%d)", y, x)
			}
			rows[y][x] = cell
		}
	}
	table := &turing.Table{Machine: p.Machine, Rows: rows}
	if err := table.Check(); err != nil {
		return err
	}

	// Step 4 + 5: the pivot is the only table cell carrying gluing edges,
	// and every fragment is glued through its top row.
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := a.TableBase[y][x]
			if v == a.Pivot {
				continue
			}
			deg := a.Labeled.G.Degree(v)
			if deg > 5 { // grid(<=4) + pyramid parent(1)
				return fmt.Errorf("halting: table cell (%d,%d) has foreign edges", y, x)
			}
		}
	}

	// Step 6: fragments are consistent members of the collection in legal
	// variants.
	for i, pf := range a.Fragments {
		if err := pf.Fragment.Consistent(); err != nil {
			return fmt.Errorf("halting: fragment %d: %w", i, err)
		}
		legal := false
		for _, spec := range pf.Fragment.GluingVariants() {
			if spec == pf.Spec {
				legal = true
			}
		}
		if !legal {
			return fmt.Errorf("halting: fragment %d glued under illegal variant %+v", i, pf.Spec)
		}
	}
	return nil
}

// DistanceShrinkage quantifies Figure 3's point: the pyramid shortens
// worst-case distances on the base grid from linear to logarithmic. It
// returns the grid-only distance and the in-pyramid distance between
// opposite corners of the table base. The distance query runs on pooled
// graph.Traversal scratch and stops as soon as the far corner is reached.
func (a *PyramidalAssembly) DistanceShrinkage() (gridDist, pyramidDist int) {
	side := len(a.TableBase)
	gridDist = 2 * (side - 1)
	pyramidDist = a.Labeled.G.Distance(a.TableBase[0][0], a.TableBase[side-1][side-1])
	return gridDist, pyramidDist
}
