package turing

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// The memo must be transparent: same results as direct Run for every budget,
// each step simulated once, and safe under concurrent lookups.
func TestRunMemoMatchesRun(t *testing.T) {
	m := Counter(4, '1')
	memo := NewRunMemo(m)
	if memo.Machine() != m {
		t.Fatal("Machine() lost the machine")
	}
	budgets := []int{1, 4, 16, 64, 4, 16, 1}
	for _, b := range budgets {
		got, gotErr := memo.Run(b)
		want, wantErr := Run(m, b)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("budget %d: err %v, want %v", b, gotErr, wantErr)
		}
		if got.Halted != want.Halted || got.Steps != want.Steps || got.Output != want.Output {
			t.Fatalf("budget %d: result %+v, want %+v", b, got, want)
		}
	}
	// Counter(4) halts after 5 steps: the run stops there whatever the
	// larger budgets, and no step is simulated twice.
	if memo.Steps() != 5 {
		t.Fatalf("memo simulated %d steps, want 5", memo.Steps())
	}
}

// endStep is the step at which m's run ends, halting or failing, if it
// ends within limit steps; otherwise limit+1.
func endStep(m *Machine, limit int) int {
	for b := 0; b <= limit; b++ {
		res, err := Run(m, b)
		switch {
		case err != nil:
			return b - 1 // the failing step is the last one the budget allowed
		case res.Halted:
			return b
		}
	}
	return limit + 1
}

// TestRunMemoRecord checks the resumable record against direct Run on
// machines that halt, run forever, fail on a missing transition or fall off
// the tape, inside and outside the dense table's grid. Budgets come in
// ascending, descending and shuffled order, and include the budgets around
// len(Delta), so some extensions pause a run on either side of the switch
// to the dense table. After every call the memo has simulated exactly up to
// the largest budget asked so far, or to the end of the run. Random, often
// invalid machines (randomMachine) add runs that end early in every way.
func TestRunMemoRecord(t *testing.T) {
	machines := append(Library(), edgeMachines()...)
	machines = append(machines,
		shuttle(3, Trans{Write: 'x', Move: Stay, Next: 4}),
		shuttle(5, Trans{Write: 'x', Move: Left, Next: 1}),
		shuttle(12, Trans{Write: 'x', Move: Right, Next: 0}),
	)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		machines = append(machines, randomMachine(rng, i))
	}
	const limit = 400
	for _, m := range machines {
		end := endStep(m, limit)
		budgets := []int{-1, 0, 1, 2, 3, 5, 9, 40, limit, len(m.Delta) - 1, len(m.Delta), len(m.Delta) + 1}
		if end <= limit {
			budgets = append(budgets, end-1, end, end+1)
		}
		slices.Sort(budgets)
		budgets = slices.Compact(budgets)
		descending := slices.Clone(budgets)
		slices.Reverse(descending)
		shuffled := slices.Clone(budgets)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, order := range [][]int{budgets, descending, shuffled} {
			memo := NewRunMemo(m)
			reached := 0
			for _, b := range order {
				got, gotErr := memo.Run(b)
				want, wantErr := Run(m, b)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s order %v budget %d: err %v, want %v", m.Encode(), order, b, gotErr, wantErr)
				}
				if got.Halted != want.Halted || got.Steps != want.Steps || got.Output != want.Output {
					t.Fatalf("%s order %v budget %d: result %+v, want %+v", m.Encode(), order, b, got, want)
				}
				reached = max(reached, min(b, end))
				if memo.Steps() != reached {
					t.Fatalf("%s order %v budget %d: memo simulated %d steps, want %d", m.Encode(), order, b, memo.Steps(), reached)
				}
			}
		}
	}
}

func TestRunMemoConcurrent(t *testing.T) {
	memo := NewRunMemo(Counter(6, '0'))
	want, wantErr := Run(memo.Machine(), 64)
	if wantErr != nil {
		t.Fatal(wantErr)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				budget := 1 << (i % 8)
				res, err := memo.Run(budget)
				if err != nil {
					t.Error(err)
					return
				}
				if budget == 64 && (res.Halted != want.Halted || res.Output != want.Output) {
					t.Errorf("budget 64: %+v, want %+v", res, want)
					return
				}
			}
		}()
	}
	wg.Wait()

	// A run that never ends is extended by whichever worker asks for more
	// steps first, while the others read what it has reached.
	zigzag := NewRunMemo(Zigzag())
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50; i++ {
				budget := rng.Intn(3000)
				res, err := zigzag.Run(budget)
				if err != nil || res.Halted {
					t.Errorf("zigzag budget %d: %+v, %v", budget, res, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if zigzag.Steps() >= 3000 {
		t.Fatalf("zigzag memo simulated %d steps, more than any budget asked", zigzag.Steps())
	}
}
