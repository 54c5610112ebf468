package halting

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/turing"
)

func TestGeneratorSamplesMatchCodes(t *testing.T) {
	p := tinyParams(turing.HaltWith('0'), 20)
	gen, err := p.GenerateNeighborhoods()
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Samples) != len(gen.Codes) {
		t.Fatalf("samples %d != codes %d", len(gen.Samples), len(gen.Codes))
	}
	for code, view := range gen.Samples {
		var got string
		if view.N() <= ExactCodeLimit {
			got = view.ObliviousCode()
		} else {
			got = string(view.RefinementCode().Bytes)
		}
		if got != code {
			t.Fatal("sample view does not reproduce its code")
		}
	}
}

// The view-algorithm form of the separation: a candidate that rejects when
// the ROOT of its view is a halting cell with a non-'0' output. Property
// (P3)'s obfuscation plants such cells in fragments for every machine, so
// the candidate rejects B(N, r) regardless of N's actual behaviour — it
// cannot separate L0 from L1.
func TestSeparationWithViewAlgorithm(t *testing.T) {
	mk := func(p Params) local.ObliviousAlgorithm {
		return local.ObliviousFunc("root-halt-scan", 1, func(view *graph.View) local.Verdict {
			cell, _, _, err := p.ParseNodeLabel(view.Labels[view.Root])
			if err != nil {
				return local.Yes // foreign node kinds are not this scan's business
			}
			if cell.State == p.Machine.Halt && cell.Sym != '0' {
				return local.No
			}
			return local.Yes
		})
	}
	// On the L0 machine, the TRUE table contains only output-0 halts, but
	// the fragments contain spurious bad halts: candidate rejects.
	p0 := tinyParams(turing.HaltWith('0'), 0) // full collection
	if testing.Short() {
		p0.FragmentLimit = 120
	}
	res, err := p0.RunSeparationWithAlgorithm(mk(p0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Accepted {
		t.Fatal("halt-scanning candidate should reject due to planted fragments")
	}
	// The same candidate also rejects the L1 machine — so it outputs the
	// same verdict on both languages: no separation.
	p1 := tinyParams(turing.HaltWith('1'), 0)
	if testing.Short() {
		p1.FragmentLimit = 120
	}
	res1, err := p1.RunSeparationWithAlgorithm(mk(p1))
	if err != nil {
		t.Fatal(err)
	}
	if res1.Accepted {
		t.Fatal("halt-scanning candidate should reject the L1 machine too")
	}
}

func TestSeparationHorizonGuard(t *testing.T) {
	p := tinyParams(turing.HaltWith('0'), 5)
	tooFar := local.ObliviousFunc("deep", p.R+1, func(view *graph.View) local.Verdict { return local.Yes })
	if _, err := p.RunSeparationWithAlgorithm(tooFar); err == nil {
		t.Fatal("horizon guard missing")
	}
}

// An always-yes candidate accepts everything: R accepts every machine —
// demonstrating that "accepting all of B" carries no information unless the
// candidate is a correct decider (which cannot exist).
func TestSeparationTrivialCandidate(t *testing.T) {
	p := tinyParams(turing.Looper(), 10)
	yes := local.ObliviousFunc("always-yes", 1, func(view *graph.View) local.Verdict { return local.Yes })
	res, err := p.RunSeparationWithAlgorithm(yes)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Accepted || res.CodesTested == 0 {
		t.Fatal("always-yes candidate should accept all neighbourhoods")
	}
}
