package turing

import (
	"fmt"
	"testing"
)

// cellLabelFormat is the format Cell.Label writes, read back by fmt.Sscanf
// as the reference parser.
const cellLabelFormat = "cell{s=%c;q=%d;x3=%d;y3=%d}"

// checkAgainstSscanf fails when ParseCellLabel accepts s but fmt.Sscanf with
// the Cell.Label format rejects it or reads different values. Rejecting
// what Sscanf accepts is allowed: the hand parser may only be stricter.
func checkAgainstSscanf(t *testing.T, s string) {
	t.Helper()
	cell, x3, y3, err := ParseCellLabel(s)
	if err != nil {
		return
	}
	var sym rune
	var q, wantX3, wantY3 int
	if _, err := fmt.Sscanf(s, cellLabelFormat, &sym, &q, &wantX3, &wantY3); err != nil {
		t.Fatalf("ParseCellLabel accepted %q, Sscanf rejects it: %v", s, err)
	}
	if rune(cell.Sym) != sym || int(cell.State) != q || x3 != wantX3 || y3 != wantY3 {
		t.Fatalf("%q: ParseCellLabel read (%q, %d, %d, %d), Sscanf (%q, %d, %d, %d)",
			s, cell.Sym, cell.State, x3, y3, sym, q, wantX3, wantY3)
	}
}

// FuzzParseCellLabel checks the hand-rolled cell-label parser on arbitrary
// input s: it never panics, and wherever it accepts s it agrees with
// fmt.Sscanf. It also builds the label of the cell (sym, q) at (x3, y3) and
// checks that ParseCellLabel round-trips it. The seed corpus lives in
// testdata/fuzz/FuzzParseCellLabel.
func FuzzParseCellLabel(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string, sym byte, q, x3, y3 int) {
		checkAgainstSscanf(t, s)

		c := Cell{Sym: Symbol(sym), State: State(q)}
		lab := c.Label(x3, y3)
		got, gotX3, gotY3, err := ParseCellLabel(lab)
		if err != nil {
			t.Fatalf("ParseCellLabel(%q): %v", lab, err)
		}
		if got != c || gotX3 != x3 || gotY3 != y3 {
			t.Fatalf("ParseCellLabel(%q) = %+v (%d, %d), want %+v (%d, %d)", lab, got, gotX3, gotY3, c, x3, y3)
		}
		checkAgainstSscanf(t, lab)
	})
}
