// Package halting implements Section 3 of the paper: the separation
// LD* != LD under computable local algorithms (C).
//
// For a halting machine M and locality parameter r, the graph G(M, r)
// consists of
//
//   - the execution table T of M, an (s+1) x (s+1) labelled grid where s is
//     M's runtime, with the pivot node at T's top-left corner, and
//   - the fragment collection C(M, r): every syntactically possible 3r x 3r
//     table fragment (all cell contents consistent with M's window rules,
//     borders unconstrained, in all nine (mod 3) orientation phases), each
//     glued to the pivot along its non-natural borders.
//
// The property P = { G(M, r) : M outputs 0 } is in LD (a node with a large
// identifier finishes simulating M and checks the output) but not in LD*
// (an Id-oblivious decider would separate the computably inseparable
// languages L0 and L1 via the neighbourhood generator B, which halts on all
// machines).
//
// Reproduction notes:
//   - Cell-local consistency uses 2-row x 3-column Cook-Levin windows rather
//     than the paper's 2x2 scheme; this changes the verification radius by a
//     constant only (see DESIGN.md).
//   - The neighbourhood generator uses a (4r+3)-sized table window (the
//     paper's flat sketch says 4r; the +3 covers all (mod 3) phases at the
//     blank top margin, and the appendix version uses a far larger 2^(4r)
//     window anyway). Neighbourhoods touching the window's bottom row or
//     rightmost column are excluded and are instead covered by fragments.
//   - Fragment collections grow exponentially with machine size; Params
//     carries an explicit FragmentLimit and every result reports truncation
//     (no silent caps).
package halting

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/turing"
)

// Params fixes the Section 3 construction.
type Params struct {
	Machine *turing.Machine
	R       int // locality parameter r >= 1
	// MaxSteps bounds the simulation used to lay out execution tables.
	MaxSteps int
	// FragmentLimit caps the number of enumerated fragment contents
	// (0 = unlimited). Truncation is reported on every artifact.
	FragmentLimit int
}

// FragmentSide returns the side length 3r of fragments.
func (p Params) FragmentSide() int { return 3 * p.R }

// WindowSide returns the table-window side used by the neighbourhood
// generator.
func (p Params) WindowSide() int { return 4*p.R + 3 }

// GMLabel is the universal (M, r) label component carried by every node.
func (p Params) GMLabel() string {
	return fmt.Sprintf("gm{%s;r=%d}", p.Machine.Encode(), p.R)
}

// NodeLabel builds the full label of a table or fragment cell: the (M, r)
// component plus the cell content and orientation coordinates.
func (p Params) NodeLabel(c turing.Cell, xMod3, yMod3 int) graph.Label {
	return p.GMLabel() + "|" + c.Label(xMod3, yMod3)
}

// nodeLabels hands out the node labels of one build. Every node of G(M, r)
// carries the same (M, r) component and one of few distinct cell contents,
// so the component is formatted once per build and each distinct
// (cell, x mod 3, y mod 3) label is built once and shared by every node that
// carries it. The labels are byte-identical to NodeLabel and PyrLabel.
type nodeLabels struct {
	prefix string // GMLabel() + "|"
	pyr    graph.Label
	cells  map[cellKey]graph.Label
}

// cellKey identifies one distinct cell label.
type cellKey struct {
	cell         turing.Cell
	xMod3, yMod3 int
}

func (p Params) newNodeLabels() *nodeLabels {
	prefix := p.GMLabel() + "|"
	return &nodeLabels{prefix: prefix, pyr: prefix + "pyr", cells: make(map[cellKey]graph.Label)}
}

// cell returns NodeLabel(c, xMod3, yMod3).
func (t *nodeLabels) cell(c turing.Cell, xMod3, yMod3 int) graph.Label {
	k := cellKey{cell: c, xMod3: xMod3, yMod3: yMod3}
	lab, ok := t.cells[k]
	if !ok {
		lab = t.prefix + c.Label(xMod3, yMod3)
		t.cells[k] = lab
	}
	return lab
}

// ParseNodeLabel splits a node label into its cell content and orientation.
func (p Params) ParseNodeLabel(lab graph.Label) (turing.Cell, int, int, error) {
	prefix := p.GMLabel() + "|"
	if len(lab) <= len(prefix) || lab[:len(prefix)] != prefix {
		return turing.Cell{}, 0, 0, fmt.Errorf("halting: label lacks (M,r) prefix")
	}
	return turing.ParseCellLabel(lab[len(prefix):])
}

// PlacedFragment is a fragment content together with an orientation phase
// and a gluing variant.
type PlacedFragment struct {
	Fragment *turing.Fragment
	// PhaseX, PhaseY shift the (mod 3) orientation labels: cell (y, x) is
	// labelled ((x+PhaseX) mod 3, (y+PhaseY) mod 3).
	PhaseX, PhaseY int
	Spec           turing.BorderSpec
}

// Collection enumerates the full glued fragment collection: contents x
// orientation phases x gluing variants.
func (p Params) Collection() ([]PlacedFragment, bool) {
	res := turing.EnumerateFragments(p.Machine, p.FragmentSide(), p.FragmentSide(), p.FragmentLimit)
	var out []PlacedFragment
	for _, f := range res.Fragments {
		variants := f.GluingVariants()
		for py := 0; py < 3; py++ {
			for px := 0; px < 3; px++ {
				for _, spec := range variants {
					out = append(out, PlacedFragment{Fragment: f, PhaseX: px, PhaseY: py, Spec: spec})
				}
			}
		}
	}
	return out, res.Truncated
}

// Assembly is a constructed G(M, r) (or the window graph G_W used by the
// neighbourhood generator).
type Assembly struct {
	Params  Params
	Labeled *graph.Labeled
	// Pivot is the node index of the pivot (the table's top-left cell).
	Pivot int
	// TableNode[y][x] is the node index of table cell (y, x).
	TableNode [][]int
	// FragmentNodes[i][y][x] is the node index of cell (y, x) of placed
	// fragment i.
	FragmentNodes [][][]int
	Fragments     []PlacedFragment
	// Truncated reports whether the fragment enumeration hit FragmentLimit.
	Truncated bool
}

// BuildG constructs G(M, r) for a halting machine. It fails if the machine
// does not halt within MaxSteps.
func (p Params) BuildG() (*Assembly, error) {
	table, err := turing.BuildTable(p.Machine, p.MaxSteps)
	if err != nil {
		return nil, err
	}
	return p.assemble(table, true)
}

// BuildWindowG constructs the window graph G_W: the table is the
// WindowSide x WindowSide partial execution table (laid out whether or not
// the machine halts), glued to the same fragment collection. This is the
// graph underlying the neighbourhood generator B.
func (p Params) BuildWindowG() (*Assembly, error) {
	side := p.WindowSide()
	table, err := turing.PartialTable(p.Machine, side, side)
	if err != nil {
		return nil, err
	}
	return p.assemble(table, false)
}

// assemble lays out a table plus the glued fragment collection.
func (p Params) assemble(table *turing.Table, fullTable bool) (*Assembly, error) {
	fragments, truncated := p.Collection()
	h, w := table.Height(), table.Width()
	side := p.FragmentSide()

	total := h*w + len(fragments)*side*side
	b := graph.NewBuilderHint(total, 2*total)
	labels := make([]graph.Label, total)
	names := p.newNodeLabels()

	// Table grid.
	tableNode := make([][]int, h)
	idx := 0
	for y := 0; y < h; y++ {
		tableNode[y] = make([]int, w)
		for x := 0; x < w; x++ {
			tableNode[y][x] = idx
			labels[idx] = names.cell(table.Cell(y, x), x%3, y%3)
			idx++
		}
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				b.AddEdge(tableNode[y][x], tableNode[y][x+1])
			}
			if y+1 < h {
				b.AddEdge(tableNode[y][x], tableNode[y+1][x])
			}
		}
	}
	pivot := tableNode[0][0]

	// Fragments.
	fragmentNodes := make([][][]int, len(fragments))
	for i, pf := range fragments {
		nodes := make([][]int, side)
		for y := 0; y < side; y++ {
			nodes[y] = make([]int, side)
			for x := 0; x < side; x++ {
				nodes[y][x] = idx
				labels[idx] = names.cell(pf.Fragment.Cells[y][x], (x+pf.PhaseX)%3, (y+pf.PhaseY)%3)
				idx++
			}
		}
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				if x+1 < side {
					b.AddEdge(nodes[y][x], nodes[y][x+1])
				}
				if y+1 < side {
					b.AddEdge(nodes[y][x], nodes[y+1][x])
				}
			}
		}
		// Glue the non-natural borders (under the variant's spec) to the
		// pivot.
		for _, cell := range pf.Fragment.BorderCells(pf.Spec) {
			b.AddEdge(pivot, nodes[cell[0]][cell[1]])
		}
		fragmentNodes[i] = nodes
	}

	return &Assembly{
		Params:        p,
		Labeled:       graph.NewLabeled(b.Build(), labels),
		Pivot:         pivot,
		TableNode:     tableNode,
		FragmentNodes: fragmentNodes,
		Fragments:     fragments,
		Truncated:     truncated,
	}, nil
}

// TableHeight returns the table part's height.
func (a *Assembly) TableHeight() int { return len(a.TableNode) }

// TableWidth returns the table part's width.
func (a *Assembly) TableWidth() int {
	if len(a.TableNode) == 0 {
		return 0
	}
	return len(a.TableNode[0])
}

// NeighborhoodCode returns the canonical code of the radius-r oblivious view
// of a node, with a size cutoff: balls larger than exactLimit nodes (the
// pivot's ball spans the whole fragment collection) use the colour-refinement
// invariant code, which is still isomorphism-invariant.
func NeighborhoodCode(l *graph.Labeled, v, radius, exactLimit int) string {
	return string(viewCode(graph.ObliviousViewOf(l, v, radius), exactLimit).Bytes)
}

// NeighborhoodSet enumerates all radius-r neighbourhood codes of a labelled
// graph (with the size cutoff of NeighborhoodCode), through one shared
// extractor so the whole sweep reuses a single set of scratch buffers.
func NeighborhoodSet(l *graph.Labeled, radius, exactLimit int) map[string]struct{} {
	out := make(map[string]struct{})
	x := graph.NewViewExtractor(l)
	for v := 0; v < l.N(); v++ {
		code := viewCode(x.At(v, radius), exactLimit).Bytes
		if _, seen := out[string(code)]; !seen {
			out[string(code)] = struct{}{}
		}
	}
	return out
}

// viewCode is the neighbourhood code of one view: the exact canonical code
// up to exactLimit nodes and the refinement code beyond. The two kinds live
// in disjoint byte namespaces (see graph.CodeWorkspace.RefinementCode), so
// one code set holds both. The bytes alias the view's code workspace.
func viewCode(view *graph.View, exactLimit int) graph.Code {
	if view.N() <= exactLimit {
		return view.CanonCode()
	}
	return view.RefinementCode()
}

// GeneratorResult is the output of the neighbourhood generator B.
type GeneratorResult struct {
	Codes map[string]struct{}
	// Samples maps each code to one representative view (Id-oblivious), so
	// that candidate deciders — which are view algorithms, as in the paper —
	// can be run directly on B's output.
	Samples map[string]*graph.View
	// Truncated reports fragment-limit truncation.
	Truncated bool
	// WindowNodes and FragmentNodes report sizes for diagnostics.
	WindowNodes int
}

// ExactCodeLimit is the ball-size threshold beyond which NeighborhoodCode
// falls back to the refinement invariant.
const ExactCodeLimit = 400

// GenerateNeighborhoods is the paper's algorithm B: on input (N, r) — where
// N need NOT halt — it returns a finite set of radius-r neighbourhood codes
// such that, whenever N halts, the set equals the neighbourhoods of G(N, r)
// (property (P3)). B always halts:
//
//   - It first simulates N for WindowSide-1 steps (a bound depending only on
//     r). If N halts within the budget, the full (small) execution table is
//     available and B simply enumerates the neighbourhoods of G(N, r).
//   - Otherwise N's runtime exceeds the window, and B lays out the
//     WindowSide x WindowSide partial table, glues the fragment collection,
//     and emits every neighbourhood that does not touch the partial table's
//     bottom row or rightmost column; deeper-table neighbourhoods are
//     covered by fragment interiors (the paper's key observation).
func (p Params) GenerateNeighborhoods() (*GeneratorResult, error) {
	budget := p.WindowSide() - 1
	if _, halted := turing.Runtime(p.Machine, budget); halted {
		short := p
		short.MaxSteps = budget
		asm, err := short.BuildG()
		if err != nil {
			return nil, err
		}
		return collectNeighborhoods(asm, p.R, nil), nil
	}
	asm, err := p.BuildWindowG()
	if err != nil {
		return nil, err
	}
	h, w := asm.TableHeight(), asm.TableWidth()
	excluded := make(map[int]struct{}, h+w)
	for x := 0; x < w; x++ {
		excluded[asm.TableNode[h-1][x]] = struct{}{}
	}
	for y := 0; y < h; y++ {
		excluded[asm.TableNode[y][w-1]] = struct{}{}
	}
	return collectNeighborhoods(asm, p.R, excluded), nil
}

// collectNeighborhoods enumerates the radius-r views of an assembly,
// skipping views that touch excluded nodes, keeping one representative view
// per code. The sweep runs through one shared ViewExtractor — per-node
// extraction and code computation reuse one set of scratch buffers — and
// clones the extracted view only for codes seen for the first time
// (extractor views are invalidated by the next extraction; samples must
// outlive the loop).
func collectNeighborhoods(asm *Assembly, radius int, excluded map[int]struct{}) *GeneratorResult {
	l := asm.Labeled
	// Both sets grow from empty, not sized to l.N(): sized, they save E3 a
	// tenth of its time, but the repro pass's peak RSS then varies by
	// about 6 MB from run to run, as E3's growing code set meets the
	// garbage collector's heap goal at different points.
	codes := make(map[string]struct{})
	samples := make(map[string]*graph.View)
	x := graph.NewViewExtractor(l)
	for v := 0; v < l.N(); v++ {
		view := x.At(v, radius)
		if len(excluded) > 0 {
			touches := false
			for _, orig := range view.Original {
				if _, bad := excluded[orig]; bad {
					touches = true
					break
				}
			}
			if touches {
				continue
			}
		}
		code := viewCode(view, ExactCodeLimit).Bytes
		if _, seen := codes[string(code)]; !seen {
			key := string(code)
			codes[key] = struct{}{}
			samples[key] = view.Clone()
		}
	}
	return &GeneratorResult{Codes: codes, Samples: samples, Truncated: asm.Truncated, WindowNodes: l.N()}
}
