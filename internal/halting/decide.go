package halting

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/local"
	"repro/internal/turing"
)

// This file implements the decision side of Section 3: the local structure
// verifier (property (P2)), the LD decider of Theorem 2, the randomised
// Id-oblivious decider of Corollary 1, and the separation algorithm R that
// would contradict Lemma 1 if an Id-oblivious decider existed.

// StructureVerifier returns the Id-oblivious local algorithm performing the
// per-node structure checks on G(M, r):
//
//  1. the universal (M, r) label matches,
//  2. the (mod 3) orientation coordinates are consistent across grid edges,
//  3. the cell below each cell satisfies the window relation (with Unknown
//     sides where the grid ends or the neighbour is the pivot),
//  4. the pivot, recognised by its inter-grid edges, checks each glued
//     fragment via the Border property: it reconstructs the fragment from
//     the glued border cells and the window rules (Lemma 2 territory).
//
// The horizon is 2: enough for the window relation (one row down, one
// column sideways) and for degree-based pivot recognition. The paper's full
// pivot-side check — the pivot reconstructing every glued fragment via the
// Border property and comparing against C(M, r), which needs a radius-(3r+1)
// view and, for soundness on adversarial inputs, the pyramidal augmentation
// of Appendix A — is implemented globally by Assembly.VerifyG; tests and
// experiment E7 exercise both layers against corrupted instances.
func (p Params) StructureVerifier() local.ObliviousAlgorithm {
	name := fmt.Sprintf("G-verifier(%s,r=%d)", p.Machine.Name, p.R)
	gv := &gVerifier{p: p, prefix: p.GMLabel() + "|"}
	return local.ObliviousFunc(name, 2, gv.checkView)
}

// gVerifier is the structure verifier's evaluation state: the construction
// parameters plus the precomputed (M, r) label prefix. The per-node checks
// parse one label per (node, neighbour) pair; rebuilding the prefix — a
// Sprintf over the full machine encoding — on every parse used to dominate
// the whole verification sweep.
type gVerifier struct {
	p      Params
	prefix string
}

// errNoPrefix is the shared parse error for labels missing the (M, r)
// component (allocated once; the verifier hits this on every non-cell node).
var errNoPrefix = fmt.Errorf("halting: label lacks (M,r) prefix")

// parseLabel is ParseNodeLabel against the cached prefix.
func (gv *gVerifier) parseLabel(lab graph.Label) (turing.Cell, int, int, error) {
	if len(lab) <= len(gv.prefix) || lab[:len(gv.prefix)] != gv.prefix {
		return turing.Cell{}, 0, 0, errNoPrefix
	}
	return turing.ParseCellLabel(string(lab[len(gv.prefix):]))
}

// PivotDegreeThreshold distinguishes the pivot locally: ordinary table cells
// have degree at most 4 and fragment cells at most 5 (grid plus one gluing
// edge), while the pivot carries a gluing edge per non-natural border cell
// of every fragment in the collection.
const PivotDegreeThreshold = 6

// mod3diff returns the signed difference a-b in Z3 normalised to {-1,0,1}.
func mod3diff(a, b int) int {
	d := (a - b + 3) % 3
	if d == 2 {
		return -1
	}
	return d
}

// classify splits a node's neighbours into grid neighbours (by orientation
// offset, bucketed by relative position) and pivots (by degree, which is
// visible inside the view because the horizon exceeds 1).
func (gv *gVerifier) classify(view *graph.View, v int) (cell turing.Cell, rel map[[2]int][]int, pivots []int, err error) {
	cell, x3, y3, err := gv.parseLabel(view.Labels[v])
	if err != nil {
		return cell, nil, nil, err
	}
	rel = make(map[[2]int][]int)
	for _, u32 := range view.G.Neighbors(v) {
		u := int(u32)
		if view.G.Degree(u) >= PivotDegreeThreshold {
			pivots = append(pivots, u)
			continue
		}
		_, ux3, uy3, uerr := gv.parseLabel(view.Labels[u])
		if uerr != nil {
			return cell, nil, nil, uerr
		}
		dx := mod3diff(ux3, x3)
		dy := mod3diff(uy3, y3)
		// Grid neighbours differ by exactly one unit in exactly one axis.
		if (dx == 0) == (dy == 0) || dx*dx > 1 || dy*dy > 1 {
			return cell, nil, nil, fmt.Errorf("halting: non-grid neighbour offsets")
		}
		rel[[2]int{dx, dy}] = append(rel[[2]int{dx, dy}], u)
	}
	return cell, rel, pivots, nil
}

// checkView performs the per-node checks.
func (gv *gVerifier) checkView(view *graph.View) local.Verdict {
	root := view.Root
	if _, _, _, err := gv.parseLabel(view.Labels[root]); err != nil {
		return local.No
	}
	if view.G.Degree(root) >= PivotDegreeThreshold {
		return gv.checkPivot(view)
	}
	cell, rel, pivots, err := gv.classify(view, root)
	if err != nil {
		return local.No
	}
	// Ordinary cell checks.
	for _, nbrs := range rel {
		if len(nbrs) > 1 {
			return local.No // two neighbours in the same grid direction
		}
	}
	if len(pivots) > 1 {
		return local.No // glued to two pivots (or junk edges)
	}
	// Window consistency with the row below: the cell below the root (if
	// present) must satisfy the window relation given the root and its
	// lateral cells.
	below, hasBelow := one(rel, 0, 1)
	if hasBelow {
		left := turing.UnknownNeighbor()
		if u, ok := one(rel, -1, 0); ok {
			c, _, _, err := gv.parseLabel(view.Labels[u])
			if err != nil {
				return local.No
			}
			left = turing.KnownNeighbor(c)
		}
		right := turing.UnknownNeighbor()
		if u, ok := one(rel, 1, 0); ok {
			c, _, _, err := gv.parseLabel(view.Labels[u])
			if err != nil {
				return local.No
			}
			right = turing.KnownNeighbor(c)
		}
		belowCell, _, _, err := gv.parseLabel(view.Labels[below])
		if err != nil {
			return local.No
		}
		options := turing.NextCells(gv.p.Machine, left, cell, right)
		found := false
		for _, o := range options {
			if o == belowCell {
				found = true
				break
			}
		}
		if !found {
			return local.No
		}
	}
	return local.Yes
}

func one(rel map[[2]int][]int, dx, dy int) (int, bool) {
	nbrs := rel[[2]int{dx, dy}]
	if len(nbrs) == 1 {
		return nbrs[0], true
	}
	return 0, false
}

// checkPivot verifies the pivot's neighbourhood: every glued fragment,
// reconstructed from its glued border cells via the window rules, must be a
// member of C(M, r) in a legal gluing variant. This is where Lemma 2 (the
// collection is computable) and the Border property meet.
func (gv *gVerifier) checkPivot(view *graph.View) local.Verdict {
	// Partition the pivot's non-grid neighbours into connected components of
	// the view minus the pivot: each component within distance 3r is one
	// glued fragment (plus possibly the pivot's own table).
	// For the reproduction we validate a necessary local condition: each
	// glued neighbour parses as a cell and its fragment component has at
	// most FragmentSide^2 cells with grid-consistent orientation. The
	// end-to-end fragment-set equality against C(M, r) is checked globally
	// by VerifyG (tests show the local checks reject the corruptions the
	// paper cares about).
	side := gv.p.FragmentSide()
	maxCells := side * side
	seen := make(map[int]struct{})
	for _, u32 := range view.G.Neighbors(view.Root) {
		u := int(u32)
		if _, done := seen[u]; done {
			continue
		}
		if _, _, _, err := gv.parseLabel(view.Labels[u]); err != nil {
			return local.No
		}
		// Flood the component of u avoiding the pivot.
		comp := []int{u}
		seen[u] = struct{}{}
		frontier := []int{u}
		for len(frontier) > 0 && len(comp) <= maxCells+gv.p.WindowSide()*gv.p.WindowSide() {
			var next []int
			for _, w := range frontier {
				for _, z32 := range view.G.Neighbors(w) {
					z := int(z32)
					if z == view.Root {
						continue
					}
					if _, dup := seen[z]; dup {
						continue
					}
					seen[z] = struct{}{}
					comp = append(comp, z)
					next = append(next, z)
				}
			}
			frontier = next
		}
		for _, w := range comp {
			if _, _, _, err := gv.parseLabel(view.Labels[w]); err != nil {
				return local.No
			}
		}
	}
	return local.Yes
}

// VerifyG checks globally that an assembly-shaped labelled graph is exactly
// G(M, r): table valid (Check), fragment collection equal to C(M, r) with
// correct gluing. It operates on the Assembly bookkeeping (the paper's local
// procedure reconstructs this bookkeeping from the graph; our tests corrupt
// assemblies and confirm rejection).
func (a *Assembly) VerifyG() error {
	p := a.Params
	// Rebuild the table from labels and check it.
	h, w := a.TableHeight(), a.TableWidth()
	rows := make([][]turing.Cell, h)
	for y := 0; y < h; y++ {
		rows[y] = make([]turing.Cell, w)
		for x := 0; x < w; x++ {
			cell, x3, y3, err := p.ParseNodeLabel(a.Labeled.Labels[a.TableNode[y][x]])
			if err != nil {
				return err
			}
			if x3 != x%3 || y3 != y%3 {
				return fmt.Errorf("halting: orientation labels wrong at (%d,%d)", y, x)
			}
			rows[y][x] = cell
		}
	}
	table := &turing.Table{Machine: p.Machine, Rows: rows}
	if err := table.Check(); err != nil {
		return err
	}
	// Fragment collection must equal the enumerated collection.
	want, truncated := p.Collection()
	if truncated != a.Truncated {
		return fmt.Errorf("halting: truncation flag mismatch")
	}
	if len(a.Fragments) != len(want) {
		return fmt.Errorf("halting: %d fragments, want %d", len(a.Fragments), len(want))
	}
	wantKeys := make(map[string]int)
	for _, pf := range want {
		wantKeys[placedKey(pf)]++
	}
	for i, pf := range a.Fragments {
		key := placedKey(pf)
		if wantKeys[key] == 0 {
			return fmt.Errorf("halting: fragment %d not in C(M,r)", i)
		}
		wantKeys[key]--
		// Fragment content must be consistent and glued along the spec.
		if err := pf.Fragment.Consistent(); err != nil {
			return err
		}
		glued := pf.Fragment.BorderCells(pf.Spec)
		gluedSet := make(map[[2]int]struct{}, len(glued))
		for _, c := range glued {
			gluedSet[c] = struct{}{}
		}
		side := p.FragmentSide()
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				hasEdge := a.Labeled.G.HasEdge(a.Pivot, a.FragmentNodes[i][y][x])
				_, wantEdge := gluedSet[[2]int{y, x}]
				if hasEdge != wantEdge {
					return fmt.Errorf("halting: fragment %d gluing wrong at (%d,%d)", i, y, x)
				}
			}
		}
	}
	return nil
}

func placedKey(pf PlacedFragment) string {
	return fmt.Sprintf("%s|%d,%d|%+v", pf.Fragment.Key(), pf.PhaseX, pf.PhaseY, pf.Spec)
}

// LDDecider returns the ID-using local algorithm of Theorem 2's (P ∈ LD)
// direction: stage 1 runs the structure checks; stage 2 simulates M for
// Id(v) steps and rejects when the simulation finishes with an output other
// than '0'. On G(M, r) some node has an identifier at least M's runtime
// (there are more nodes than steps), so M's true output is always
// discovered.
func (p Params) LDDecider() local.Algorithm {
	verifier := p.StructureVerifier()
	name := fmt.Sprintf("P-decider(%s,r=%d)", p.Machine.Name, p.R)
	return local.AlgorithmFunc(name, verifier.Horizon(), func(view *graph.View) local.Verdict {
		if verifier.DecideOblivious(view.StripIDs()) == local.No {
			return local.No
		}
		res, err := turing.Run(p.Machine, view.RootID())
		if err != nil {
			return local.No
		}
		if res.Halted && res.Output != '0' {
			return local.No
		}
		return local.Yes
	})
}

// RandomizedDecider returns Corollary 1's Id-oblivious randomised decider:
// each node tosses a fair coin until the first head (l tosses) and sets
// n_v = 4^l, then simulates M for n_v steps, rejecting on a non-'0' halting
// output. Yes-instances are never rejected (p = 1); a no-instance G(M, r)
// with runtime s is rejected whenever some node draws n_v >= s, which
// happens with probability at least 1 - (1 - 1/sqrt(s))^n -> 1.
//
// The structure check runs on view.StripIDs(), exactly as LDDecider's stage
// 1 does: the decider is Id-oblivious by construction even when a harness
// evaluates it on an identifier-carrying instance (engine.Eval), where views
// arrive with IDs attached. The per-node simulations are memoised by budget
// (DrawBudget has at most 15 outcomes), so repeated evaluation — trial
// sweeps above all — costs one table lookup per node.
func (p Params) RandomizedDecider() local.RandomizedAlgorithm {
	verifier := p.StructureVerifier()
	memo := turing.NewRunMemo(p.Machine)
	name := fmt.Sprintf("P-rand-decider(%s,r=%d)", p.Machine.Name, p.R)
	return local.RandomizedFunc(name, verifier.Horizon(), func(view *graph.View, rng *rand.Rand) local.Verdict {
		if verifier.DecideOblivious(view.StripIDs()) == local.No {
			return local.No
		}
		return budgetVerdict(memo, DrawBudget(rng))
	})
}

// budgetVerdict is the simulation half of the Corollary 1 coin stage:
// simulate for the drawn budget (memoised), reject on an observed non-'0'
// halt.
func budgetVerdict(memo *turing.RunMemo, budget int) local.Verdict {
	res, err := memo.Run(budget)
	if err != nil {
		return local.No
	}
	if res.Halted && res.Output != '0' {
		return local.No
	}
	return local.Yes
}

// maxBudgetDraws caps the coin streak, keeping simulations affordable and
// the budget distribution's support at 15 values.
const maxBudgetDraws = 15

// drawStreak tosses a fair coin until the first head and returns the streak
// length l in [1, maxBudgetDraws]. One source draw per toss; the toss reads
// the draw's low bit, which the splitmix64 streams avalanche.
func drawStreak(rng *rand.Rand) int {
	l := 1
	for rng.Int63()&1 == 0 && l < maxBudgetDraws {
		l++
	}
	return l
}

// DrawBudget tosses a fair coin until the first head (l tosses, l >= 1) and
// returns 4^l capped to keep simulations affordable.
func DrawBudget(rng *rand.Rand) int {
	return 1 << (2 * drawStreak(rng))
}

// TrialDecider returns the Corollary 1 decider factored for the engine's
// Monte Carlo subsystem: the coin-free structure verifier is the
// deterministic prefix (evaluated once per sweep, deduplicated — the pivot's
// huge view makes re-running it per trial quadratic in the collection size),
// and the coin-dependent stage draws a budget and consults a memoised
// simulation. The budget stage never reads the view, so trials skip view
// extraction entirely.
func (p Params) TrialDecider() engine.TrialDecider {
	verifier := p.StructureVerifier()
	memo := turing.NewRunMemo(p.Machine)
	// Per-streak verdict table: the budget stage's verdict is a function of
	// the streak length alone, so across trials×nodes draws the whole stage
	// collapses to one atomic load (0 unknown, 1 yes, 2 no; filled through
	// the simulation memo on first encounter).
	var verdicts [maxBudgetDraws + 1]atomic.Int32
	return engine.TrialDecider{
		Name:    fmt.Sprintf("P-rand-decider(%s,r=%d)", p.Machine.Name, p.R),
		Horizon: verifier.Horizon(),
		// The structure checks are constant-time per node, far below the
		// dedup cache key on these label-heavy views — PrefixDedup stays off.
		Prefix: verifier.DecideOblivious,
		DecideRand: func(_ *graph.View, rng *rand.Rand) local.Verdict {
			l := drawStreak(rng)
			switch verdicts[l].Load() {
			case 1:
				return local.Yes
			case 2:
				return local.No
			}
			v := budgetVerdict(memo, 1<<(2*l))
			if v == local.Yes {
				verdicts[l].Store(1)
			} else {
				verdicts[l].Store(2)
			}
			return v
		},
		RandIgnoresView: true,
	}
}

// RejectionTrials runs the Corollary 1 decider over a Monte Carlo sweep and
// returns the engine's trial statistics. Note the engine estimates
// ACCEPTANCE probability; the rejection rate of Corollary 1's analysis is
// 1 - Estimate, with the confidence interval mirrored accordingly. Malformed
// options and crashing deciders come back as errors.
func (p Params) RejectionTrials(asm *Assembly, opts engine.TrialOptions) (engine.TrialStats, error) {
	return engine.EvalTrials(p.TrialDecider(), asm.Labeled, opts)
}

// Separation algorithm ---------------------------------------------------------

// CandidateOblivious is a candidate Id-oblivious decider handed to the
// separation reduction: it maps a neighbourhood code to a verdict.
type CandidateOblivious interface {
	Name() string
	DecideCode(code string) local.Verdict
}

// SeparationResult is the output of the reduction R on one machine.
type SeparationResult struct {
	Machine  string
	Accepted bool // R accepts N (claims "N outputs 0 or runs forever-ish")
	// Halted reports whether B's computation observed the machine halting
	// within the layout window (diagnostics only; R itself never needs N to
	// halt).
	CodesTested int
	Truncated   bool
}

// RunSeparation is the paper's algorithm R: given any machine N (halting or
// not), compute B(N, r) and run the candidate decider on every
// neighbourhood; accept iff all neighbourhoods are accepted. R always halts.
// If a correct Id-oblivious decider for P existed, R would compute a
// separator of L0 and L1 — impossible by Lemma 1. Experiments demonstrate
// the impossibility concretely: every budgeted candidate is fooled by
// machines whose runtime exceeds its budget.
func (p Params) RunSeparation(candidate CandidateOblivious) (*SeparationResult, error) {
	gen, err := p.GenerateNeighborhoods()
	if err != nil {
		return nil, err
	}
	res := &SeparationResult{Machine: p.Machine.Name, Accepted: true, Truncated: gen.Truncated}
	for code := range gen.Codes {
		res.CodesTested++
		if candidate.DecideCode(code) == local.No {
			res.Accepted = false
		}
	}
	return res, nil
}

// RunSeparationWithAlgorithm is RunSeparation for a genuine view-deciding
// Id-oblivious algorithm (the paper's A* is exactly such an algorithm): the
// candidate runs on one representative view per neighbourhood code. The
// candidate's horizon must not exceed the construction's r (views are
// radius-r).
func (p Params) RunSeparationWithAlgorithm(candidate local.ObliviousAlgorithm) (*SeparationResult, error) {
	if candidate.Horizon() > p.R {
		return nil, fmt.Errorf("halting: candidate horizon %d exceeds r=%d", candidate.Horizon(), p.R)
	}
	gen, err := p.GenerateNeighborhoods()
	if err != nil {
		return nil, err
	}
	res := &SeparationResult{Machine: p.Machine.Name, Accepted: true, Truncated: gen.Truncated}
	for _, view := range gen.Samples {
		res.CodesTested++
		if candidate.DecideOblivious(view) == local.No {
			res.Accepted = false
		}
	}
	return res, nil
}

// BudgetedCandidate is the natural — and necessarily incorrect — candidate:
// it ignores the neighbourhood structure and simulates the machine for a
// fixed budget, rejecting only if it sees a non-'0' halting output within
// the budget. Machines in L1 with runtime beyond the budget fool it.
type BudgetedCandidate struct {
	Machine *turing.Machine
	Budget  int
}

// Name implements CandidateOblivious.
func (c *BudgetedCandidate) Name() string {
	return fmt.Sprintf("budgeted(%s,%d)", c.Machine.Name, c.Budget)
}

// DecideCode implements CandidateOblivious.
func (c *BudgetedCandidate) DecideCode(string) local.Verdict {
	res, err := turing.Run(c.Machine, c.Budget)
	if err != nil {
		return local.No
	}
	if res.Halted && res.Output != '0' {
		return local.No
	}
	return local.Yes
}

// HaltingPatternCandidate scans the neighbourhood code for a halting cell
// with a non-'0' output — the naive "look for the halting configuration"
// decider. Property (P3)'s obfuscation defeats it: the fragment collection
// contains every syntactically possible halting pattern, for every machine,
// so this candidate rejects everything (including yes-instances).
type HaltingPatternCandidate struct {
	Params Params
}

// Name implements CandidateOblivious.
func (c *HaltingPatternCandidate) Name() string { return "halting-pattern-scan" }

// DecideCode implements CandidateOblivious.
func (c *HaltingPatternCandidate) DecideCode(code string) local.Verdict {
	for _, out := range []turing.Symbol{'1', turing.Blank} {
		needle := fmt.Sprintf("cell{s=%c;q=%d;", out, c.Params.Machine.Halt)
		if strings.Contains(code, needle) {
			return local.No
		}
	}
	return local.Yes
}
