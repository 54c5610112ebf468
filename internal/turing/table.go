package turing

import (
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Cell is one entry of an execution table: the tape symbol at that position
// and, if the head is here, its control state (NoHead otherwise; the halting
// state may appear and freezes the cell).
type Cell struct {
	Sym   Symbol
	State State
}

// HasHead reports whether the head owns this cell (in any state, halting
// included).
func (c Cell) HasHead() bool { return c.State != NoHead }

// Label encodes the cell for use as part of a node label. The encoding also
// carries the (x mod 3, y mod 3) orientation coordinates required by the
// paper's labelling scheme, which supply a locally checkable orientation of
// the grid.
func (c Cell) Label(xMod3, yMod3 int) string {
	return fmt.Sprintf("cell{s=%c;q=%d;x3=%d;y3=%d}", c.Sym, c.State, xMod3, yMod3)
}

// ParseCellLabel inverts Cell.Label. The structure verifiers parse one label
// per (node, neighbour) pair in their hot loop, so this is a hand-rolled
// scan — fmt.Sscanf's reflection and internal panic/recover error path cost
// more than the whole surrounding check. Wherever it accepts an input,
// fmt.Sscanf with the Cell.Label format reads the same values; it is
// stricter in places (no signs other than '-', no surrounding space, no
// trailing text), which FuzzParseCellLabel pins.
func ParseCellLabel(s string) (Cell, int, int, error) {
	fail := func() (Cell, int, int, error) {
		return Cell{}, 0, 0, fmt.Errorf("turing: bad cell label %q", s)
	}
	rest, ok := strings.CutPrefix(s, "cell{s=")
	if !ok || rest == "" {
		return fail()
	}
	// Label writes the symbol with %c, which UTF-8-encodes bytes >= 0x80.
	sym, size := rune(rest[0]), 1
	if sym >= utf8.RuneSelf {
		sym, size = utf8.DecodeRuneInString(rest)
		if sym > 0xff {
			return fail()
		}
	}
	q, rest, ok := cutInt(rest[size:], ";q=")
	if !ok {
		return fail()
	}
	x3, rest, ok := cutInt(rest, ";x3=")
	if !ok {
		return fail()
	}
	y3, rest, ok := cutInt(rest, ";y3=")
	if !ok || rest != "}" {
		return fail()
	}
	return Cell{Sym: Symbol(sym), State: State(q)}, x3, y3, nil
}

// cutInt strips prefix from s and reads the decimal (possibly negative)
// integer that follows, returning the value and the remainder. Values that
// overflow int are rejected.
func cutInt(s, prefix string) (int, string, bool) {
	s, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, s, false
	}
	i := 0
	if i < len(s) && s[i] == '-' {
		i++
	}
	start := i
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		i++
	}
	if i == start {
		return 0, s, false
	}
	val, err := strconv.Atoi(s[:i])
	if err != nil {
		return 0, s, false
	}
	return val, s[i:], true
}

// NeighborKind classifies a horizontal neighbour of a cell for the window
// relation.
type NeighborKind int

// Neighbour classifications: Known carries a concrete cell; Wall is the tape
// edge or a verified-absent neighbour (no head can arrive across it);
// Unknown is an unobserved region from which a head may arrive (used at
// fragment borders, where the paper places no constraints).
const (
	Known NeighborKind = iota + 1
	Wall
	Unknown
)

// Neighbor is a horizontal neighbour of a table cell.
type Neighbor struct {
	Kind NeighborKind
	Cell Cell // valid when Kind == Known
}

// KnownNeighbor wraps a concrete cell.
func KnownNeighbor(c Cell) Neighbor { return Neighbor{Kind: Known, Cell: c} }

// WallNeighbor is the tape edge.
func WallNeighbor() Neighbor { return Neighbor{Kind: Wall} }

// UnknownNeighbor is an unobserved region.
func UnknownNeighbor() Neighbor { return Neighbor{Kind: Unknown} }

// NextCells returns the set of cells that may legally appear directly below
// mid, given mid's horizontal neighbours. This is the Cook-Levin window
// relation: the cell below is determined by the three cells above, except
// that heads may arrive out of Unknown regions. An empty result means the
// configuration is locally inconsistent (e.g. two heads collide).
func NextCells(m *Machine, left Neighbor, mid Cell, right Neighbor) []Cell {
	// A halted head freezes its cell forever.
	if m.IsHalt(mid.State) {
		if definiteArrivalInto(m, left, right) {
			return nil // a second head running into a halted cell
		}
		return []Cell{mid}
	}

	// Symbol below: changes only if the head is on mid.
	sym := mid.Sym
	var stayArrival *State
	if mid.State != NoHead {
		tr := m.Delta[TransKey{State: mid.State, Read: mid.Sym}]
		sym = tr.Write
		if tr.Move == Stay {
			next := tr.Next
			stayArrival = &next
		}
	}

	var definite []State
	if stayArrival != nil {
		definite = append(definite, *stayArrival)
	}
	if q, ok := arrivalFrom(m, left, Right); ok {
		definite = append(definite, q)
	}
	if q, ok := arrivalFrom(m, right, Left); ok {
		definite = append(definite, q)
	}
	if len(definite) > 1 {
		return nil // head collision
	}
	if len(definite) == 1 {
		return []Cell{{Sym: sym, State: definite[0]}}
	}

	// No definite arrival: the cell may stay head-free, or a head may arrive
	// from an Unknown side.
	out := []Cell{{Sym: sym, State: NoHead}}
	seen := map[State]struct{}{}
	if left.Kind == Unknown {
		for _, q := range m.ReachableByMove(Right) {
			if _, dup := seen[q]; !dup {
				seen[q] = struct{}{}
				out = append(out, Cell{Sym: sym, State: q})
			}
		}
	}
	if right.Kind == Unknown {
		for _, q := range m.ReachableByMove(Left) {
			if _, dup := seen[q]; !dup {
				seen[q] = struct{}{}
				out = append(out, Cell{Sym: sym, State: q})
			}
		}
	}
	return out
}

// arrivalFrom reports whether a head definitely arrives into the middle cell
// from the given Known neighbour moving in direction toward.
func arrivalFrom(m *Machine, nb Neighbor, toward Move) (State, bool) {
	if nb.Kind != Known {
		return 0, false
	}
	c := nb.Cell
	if c.State == NoHead || m.IsHalt(c.State) {
		return 0, false
	}
	tr := m.Delta[TransKey{State: c.State, Read: c.Sym}]
	if tr.Move == toward {
		return tr.Next, true
	}
	return 0, false
}

func definiteArrivalInto(m *Machine, left, right Neighbor) bool {
	if _, ok := arrivalFrom(m, left, Right); ok {
		return true
	}
	_, ok := arrivalFrom(m, right, Left)
	return ok
}

// Table is an execution table (space-time diagram): Rows[i][x] is the cell at
// column x of the configuration before step i. A complete table of a machine
// with runtime s has s+1 rows and width s+1 (the head cannot leave columns
// 0..s).
type Table struct {
	Machine *Machine
	Rows    [][]Cell
}

// Width returns the number of columns.
func (t *Table) Width() int {
	if len(t.Rows) == 0 {
		return 0
	}
	return len(t.Rows[0])
}

// Height returns the number of rows.
func (t *Table) Height() int { return len(t.Rows) }

// Cell returns the cell at row y, column x.
func (t *Table) Cell(y, x int) Cell { return t.Rows[y][x] }

// BuildTable runs m to completion (within maxSteps) and lays out its full
// (s+1) x (s+1) execution table. This realises property (P1): the table is a
// faithful record of the execution.
func BuildTable(m *Machine, maxSteps int) (*Table, error) {
	res, err := Run(m, maxSteps)
	if err != nil {
		return nil, err
	}
	if !res.Halted {
		return nil, fmt.Errorf("turing: %q did not halt within %d steps", m.Name, maxSteps)
	}
	s := res.Steps
	width := s + 1
	configs, err := Trace(m, s+1)
	if err != nil {
		return nil, err
	}
	rows := make([][]Cell, s+1)
	for i, c := range configs {
		row := make([]Cell, width)
		for x := 0; x < width; x++ {
			row[x] = Cell{Sym: c.Read(x), State: NoHead}
		}
		if c.Head < width {
			row[c.Head] = Cell{Sym: c.Read(c.Head), State: c.State}
		}
		rows[i] = row
	}
	return &Table{Machine: m, Rows: rows}, nil
}

// PartialTable lays out the first rows x cols fragment of the (possibly
// infinite) execution of m: the T_{4r} sub-table of the paper's neighbourhood
// generator. It never requires m to halt. If m halts early the remaining rows
// repeat the frozen halting configuration.
func PartialTable(m *Machine, rows, cols int) (*Table, error) {
	configs, err := Trace(m, rows)
	if err != nil {
		return nil, err
	}
	out := make([][]Cell, rows)
	for i := 0; i < rows; i++ {
		c := configs[min(i, len(configs)-1)]
		row := make([]Cell, cols)
		for x := 0; x < cols; x++ {
			row[x] = Cell{Sym: c.Read(x), State: NoHead}
		}
		if c.Head < cols {
			row[c.Head] = Cell{Sym: c.Read(c.Head), State: c.State}
		}
		out[i] = row
	}
	return &Table{Machine: m, Rows: out}, nil
}

// Check verifies that the table is a valid complete execution table of its
// machine: the first row is the blank start configuration, every cell follows
// from the window relation with tape-edge walls at the sides, no halting head
// appears before the final row, and the final row contains exactly one head,
// in the halting state. This is the global version of local checkability.
func (t *Table) Check() error {
	h, w := t.Height(), t.Width()
	if h == 0 || w == 0 {
		return fmt.Errorf("turing: empty table")
	}
	m := t.Machine
	// First row: blank tape, head on cell 0 in state 0.
	for x := 0; x < w; x++ {
		want := Cell{Sym: Blank, State: NoHead}
		if x == 0 {
			want.State = 0
		}
		if t.Rows[0][x] != want {
			return fmt.Errorf("turing: row 0 col %d is %+v, want start configuration", x, t.Rows[0][x])
		}
	}
	for y := 0; y+1 < h; y++ {
		for x := 0; x < w; x++ {
			left := WallNeighbor()
			if x > 0 {
				left = KnownNeighbor(t.Rows[y][x-1])
			}
			right := WallNeighbor()
			if x+1 < w {
				right = KnownNeighbor(t.Rows[y][x+1])
			}
			options := NextCells(m, left, t.Rows[y][x], right)
			if !containsCell(options, t.Rows[y+1][x]) {
				return fmt.Errorf("turing: window violation at row %d col %d: below %+v got %+v, legal %v",
					y, x, t.Rows[y][x], t.Rows[y+1][x], options)
			}
		}
	}
	// Head accounting per row.
	for y := 0; y < h; y++ {
		heads := 0
		halts := 0
		for x := 0; x < w; x++ {
			if t.Rows[y][x].HasHead() {
				heads++
				if m.IsHalt(t.Rows[y][x].State) {
					halts++
				}
			}
		}
		if heads != 1 {
			return fmt.Errorf("turing: row %d has %d heads, want 1", y, heads)
		}
		if y < h-1 && halts > 0 {
			return fmt.Errorf("turing: halting head before final row (row %d)", y)
		}
		if y == h-1 && halts != 1 {
			return fmt.Errorf("turing: final row lacks the halting head")
		}
	}
	return nil
}

// Output returns the output symbol recorded in the final (halting) row.
func (t *Table) Output() (Symbol, error) {
	last := t.Rows[t.Height()-1]
	for _, c := range last {
		if c.HasHead() && t.Machine.IsHalt(c.State) {
			return c.Sym, nil
		}
	}
	return 0, fmt.Errorf("turing: table has no halting head in final row")
}

// SubGrid returns the h x w sub-table anchored at (row, col). It panics if
// the window exceeds the table (programming error in callers).
func (t *Table) SubGrid(row, col, h, w int) [][]Cell {
	if row < 0 || col < 0 || row+h > t.Height() || col+w > t.Width() {
		panic(fmt.Sprintf("turing: subgrid (%d,%d,%d,%d) out of %dx%d table",
			row, col, h, w, t.Height(), t.Width()))
	}
	out := make([][]Cell, h)
	for y := 0; y < h; y++ {
		out[y] = append([]Cell(nil), t.Rows[row+y][col:col+w]...)
	}
	return out
}

// Format renders the table for CLI display.
func (t *Table) Format() string {
	var b strings.Builder
	for y, row := range t.Rows {
		b.WriteString(strconv.Itoa(y))
		b.WriteByte('\t')
		for _, c := range row {
			if c.HasHead() {
				if t.Machine.IsHalt(c.State) {
					fmt.Fprintf(&b, "[%c!]", c.Sym)
				} else {
					fmt.Fprintf(&b, "[%c%d]", c.Sym, c.State)
				}
			} else {
				fmt.Fprintf(&b, " %c  ", c.Sym)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func containsCell(cells []Cell, c Cell) bool {
	for _, x := range cells {
		if x == c {
			return true
		}
	}
	return false
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
