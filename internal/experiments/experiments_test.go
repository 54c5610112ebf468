package experiments

import (
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 16 {
		t.Fatalf("registry has %d experiments, want 16 (E1-E16)", len(reg))
	}
	seen := make(map[string]struct{})
	for i, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %d incomplete: %+v", i, e)
		}
		if _, dup := seen[e.ID]; dup {
			t.Errorf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = struct{}{}
	}
}

func TestFind(t *testing.T) {
	if _, ok := Find("E5"); !ok {
		t.Error("E5 not found")
	}
	if _, ok := Find("e10"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if _, ok := Find("E99"); ok {
		t.Error("phantom experiment found")
	}
}

// Every experiment must run green in quick mode. This is the integration
// test of the whole reproduction pipeline.
func TestAllExperimentsQuick(t *testing.T) {
	checkAllExperiments(t, Config{Quick: true, Seed: 7})
}

// At full size, what cmd/repro prints by default, every experiment must
// run green as well.
func TestAllExperimentsFullSize(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size reproduction")
	}
	checkAllExperiments(t, Config{Seed: 1})
}

func checkAllExperiments(t *testing.T, cfg Config) {
	for _, e := range Registry() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			if testing.Short() && (e.ID == "E3" || e.ID == "E7" || e.ID == "E9") {
				t.Skip("heavy construction")
			}
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if !res.OK {
				t.Errorf("%s reported ATTENTION:\n%s", e.ID, Render(res))
			}
			if len(res.Rows) == 0 {
				t.Errorf("%s produced no rows", e.ID)
			}
			if res.ID != e.ID {
				t.Errorf("result id %s != %s", res.ID, e.ID)
			}
		})
	}
}

func TestRender(t *testing.T) {
	res := &Result{
		ID:     "EX",
		Title:  "demo",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"a", "1"}, {"bee", "22"}},
		Notes:  []string{"a note"},
		OK:     true,
	}
	out := Render(res)
	for _, want := range []string{"EX", "demo", "OK", "col", "bee", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	res.OK = false
	if !strings.Contains(Render(res), "ATTENTION") {
		t.Error("failed result not flagged")
	}
}

func TestBoolCellAndFmtFloat(t *testing.T) {
	if boolCell(true) != "yes" || boolCell(false) != "NO" {
		t.Error("boolCell wrong")
	}
	if fmtFloat(0.5) != "0.5000" {
		t.Errorf("fmtFloat = %s", fmtFloat(0.5))
	}
}
