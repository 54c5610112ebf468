// Package experiments is the reproduction harness: one experiment per table
// and figure of the paper (plus the extension results), each producing
// printable rows. cmd/repro renders the whole set; bench_test.go wraps each
// experiment in a testing.B benchmark. The experiment index lives in
// DESIGN.md; measured-vs-paper notes live in EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"strings"
)

// Config tunes experiment sizes.
type Config struct {
	// Quick shrinks parameter sweeps for benchmark iterations.
	Quick bool
	// Seed drives all pseudo-randomness.
	Seed int64
}

// Result is a rendered experiment outcome.
type Result struct {
	ID    string
	Title string
	// Header and Rows form the printed table.
	Header []string
	Rows   [][]string
	// Notes carry caveats (truncations, substitutions, deviations).
	Notes []string
	// OK aggregates pass/fail checks embedded in the experiment.
	OK bool
}

// Experiment is a registered reproduction unit.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Result, error)
}

// Registry returns all experiments in presentation order.
func Registry() []Experiment {
	return []Experiment{
		{ID: "E1", Title: "Table 1 quadrant (B, C): LD* != LD via Section 3 with bounded identifiers", Run: RunE1},
		{ID: "E2", Title: "Table 1 quadrant (B, ¬C): LD* != LD via Section 2 with an oracle bound", Run: RunE2},
		{ID: "E3", Title: "Table 1 quadrant (¬B, C): LD* != LD via Section 3", Run: RunE3},
		{ID: "E4", Title: "Table 1 quadrant (¬B, ¬C): LD* = LD via the Id-oblivious simulation A*", Run: RunE4},
		{ID: "E5", Title: "Figure 1: layered trees T_r, small instances H_r, view coverage", Run: RunE5},
		{ID: "E6", Title: "Section 2 promise problem: r-cycle vs f(r)+1-cycle", Run: RunE6},
		{ID: "E7", Title: "Figure 2: G(M, r) assembly, fragment collection, generator B", Run: RunE7},
		{ID: "E8", Title: "Section 3 promise problem R: machine on a cycle", Run: RunE8},
		{ID: "E9", Title: "Figure 3 / Appendix A: pyramidal tables and checkability", Run: RunE9},
		{ID: "E10", Title: "Corollary 1: randomised Id-oblivious decider success probability", Run: RunE10},
		{ID: "E11", Title: "Extension (§1.3): NLD* = NLD via guessed-identifier certificates", Run: RunE11},
		{ID: "E12", Title: "Extension (§1.3): LD* = LD for hereditary languages (oblivious lift)", Run: RunE12},
		{ID: "E13", Title: "Ablation: view-based vs message-passing LOCAL runtime", Run: RunE13},
		{ID: "E14", Title: "Extension (§3.3): the hereditary randomisation threshold fails for general languages", Run: RunE14},
		{ID: "E15", Title: "Extension (§1.3): the PO model — constructive power without size information", Run: RunE15},
		{ID: "E16", Title: "Self-stabilization: verdict recovery under label corruption and healing", Run: RunE16},
	}
}

// Find returns the experiment with the given ID.
func Find(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Render formats a result as an aligned text table.
func Render(r *Result) string {
	var b strings.Builder
	status := "OK"
	if !r.OK {
		status = "ATTENTION"
	}
	fmt.Fprintf(&b, "== %s: %s [%s]\n", r.ID, r.Title, status)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "  %-*s", widths[i], cell)
			} else {
				fmt.Fprintf(&b, "  %s", cell)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Header)
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(&b, "  note: %s\n", note)
	}
	return b.String()
}

// RunAll executes every experiment and renders the outputs in order.
func RunAll(cfg Config) (string, bool, error) {
	var b strings.Builder
	allOK := true
	for _, e := range Registry() {
		res, err := e.Run(cfg)
		if err != nil {
			return b.String(), false, fmt.Errorf("%s: %w", e.ID, err)
		}
		if !res.OK {
			allOK = false
		}
		b.WriteString(Render(res))
		b.WriteByte('\n')
	}
	return b.String(), allOK, nil
}

// helpers shared by experiment implementations -----------------------------------

func boolCell(ok bool) string {
	if ok {
		return "yes"
	}
	return "NO"
}

func fmtFloat(f float64) string { return fmt.Sprintf("%.4f", f) }
