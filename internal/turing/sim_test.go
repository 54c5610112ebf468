package turing

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// runByStep is the map-lookup reference for Run: it steps Config.Step, which
// reads Delta directly, from the blank start configuration.
func runByStep(m *Machine, maxSteps int) (Result, error) {
	c := StartConfig()
	for step := 0; step <= maxSteps; step++ {
		if m.IsHalt(c.State) {
			return Result{Halted: true, Steps: step, Output: c.Read(c.Head), Final: c}, nil
		}
		if step == maxSteps {
			break
		}
		next, err := c.Step(m)
		if err != nil {
			return Result{}, err
		}
		c = next
	}
	return Result{Halted: false, Final: c}, nil
}

// checkRunMatchesStep compares Run with the reference on one machine and
// budget: equal results, and an error from both or from neither.
func checkRunMatchesStep(t *testing.T, m *Machine, maxSteps int) {
	t.Helper()
	got, gotErr := Run(m, maxSteps)
	want, wantErr := runByStep(m, maxSteps)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s budget %d: Run error %v, reference error %v", m.Encode(), maxSteps, gotErr, wantErr)
	}
	if got.Halted != want.Halted || got.Steps != want.Steps || got.Output != want.Output ||
		got.Final.Head != want.Final.Head || got.Final.State != want.Final.State ||
		!slices.Equal(got.Final.Tape, want.Final.Tape) {
		t.Fatalf("%s budget %d: Run %+v, reference %+v", m.Encode(), maxSteps, got, want)
	}
}

// edgeMachines are machines at the edges of Run's transition table: no
// transitions at all (halting at once or failing at once), key states far
// outside the ordinary range, up to the largest State, and shuttles, whose
// runs outlast len(Delta) steps and so reach the table, ending in each way
// a run can end.
func edgeMachines() []*Machine {
	far := State(1) << 40
	sparse := func(last State) *Machine {
		return &Machine{Name: "sparse", States: 1, Halt: 7, Symbols: binaryAlphabet(), Delta: map[TransKey]Trans{
			{State: 0, Read: Blank}:    {Write: '1', Move: Right, Next: far},
			{State: far, Read: Blank}:  {Write: '0', Move: Right, Next: -far},
			{State: -far, Read: Blank}: {Write: '1', Move: Left, Next: 3},
			{State: 3, Read: '0'}:      {Write: '1', Move: Stay, Next: last},
		}}
	}
	return []*Machine{
		{Name: "empty", States: 1, Halt: 1, Symbols: binaryAlphabet(), Delta: map[TransKey]Trans{}},
		{Name: "empty-halted", States: 1, Halt: 0, Symbols: binaryAlphabet(), Delta: map[TransKey]Trans{}},
		sparse(7),       // halts after 4 steps
		sparse(far + 1), // enters a state without transitions
		{Name: "max-state", States: 1, Halt: 1, Symbols: binaryAlphabet(), Delta: map[TransKey]Trans{
			{State: 0, Read: Blank}:           {Write: '0', Move: Right, Next: 0}, // walks right forever
			{State: math.MaxInt, Read: Blank}: {Write: '1', Move: Stay, Next: 0},
		}},
		shuttle(8, Trans{Write: 'x', Move: Stay, Next: 9}),       // halts
		shuttle(8, Trans{Write: 'x', Move: Right, Next: 1}),      // never halts
		shuttle(8, Trans{Write: 'x', Move: Left, Next: 1}),       // falls off the tape
		shuttle(8, Trans{Write: 'x', Move: Right, Next: 0}),      // misses a pair inside the grid
		shuttle(8, Trans{Write: 'x', Move: Right, Next: far}),    // misses a pair outside it
		shuttle(8, Trans{Write: 'y', Move: Stay, Next: far + 8}), // reads a symbol no key reads
	}
}

// shuttle writes a marker 'x' on cell 0, then makes trips trips right to the
// first blank, extending a run of '1's, and back to the marker: about
// trips² steps from 1+4·trips keys. Its right walkers are the states
// 1..trips, inside the table's grid; its left walkers are far states outside
// it. last is the final left walker's transition on the marker.
func shuttle(trips int, last Trans) *Machine {
	far := State(1) << 40
	m := &Machine{Name: "shuttle", States: trips + 1, Halt: State(trips + 1), Symbols: binaryAlphabet(),
		Delta: map[TransKey]Trans{{State: 0, Read: Blank}: {Write: 'x', Move: Right, Next: 1}}}
	for i := 1; i <= trips; i++ {
		right, left := State(i), far+State(i)
		m.Delta[TransKey{State: right, Read: '1'}] = Trans{Write: '1', Move: Right, Next: right}
		m.Delta[TransKey{State: right, Read: Blank}] = Trans{Write: '1', Move: Left, Next: left}
		m.Delta[TransKey{State: left, Read: '1'}] = Trans{Write: '1', Move: Left, Next: left}
		m.Delta[TransKey{State: left, Read: 'x'}] = Trans{Write: 'x', Move: Right, Next: right + 1}
	}
	m.Delta[TransKey{State: far + State(trips), Read: 'x'}] = last
	return m
}

func TestRunMatchesStepReferenceLibrary(t *testing.T) {
	for _, m := range append(Library(), edgeMachines()...) {
		for _, budget := range []int{0, 1, 2, 3, 4, 5, 9, 40, 300} {
			checkRunMatchesStep(t, m, budget)
		}
	}
	if res, err := Run(edgeMachines()[2], 10); err != nil || !res.Halted || res.Steps != 4 {
		t.Fatalf("sparse machine: %+v, %v", res, err)
	}
	// These must run past their first len(Delta) steps, or they never reach
	// the table.
	for _, m := range edgeMachines()[4:] {
		if res, err := runByStep(m, len(m.Delta)); err != nil || res.Halted {
			t.Fatalf("%s ends within %d steps: %+v, %v", m.Encode(), len(m.Delta), res, err)
		}
	}
}

// randomMachine draws a small machine that is often invalid: transitions
// may be missing, write symbols outside the alphabet, use moves other than
// L/S/R, enter unknown states, or leave the halting state; keys may name
// states outside the ordinary range.
func randomMachine(rng *rand.Rand, i int) *Machine {
	alphabet := []Symbol{Blank, '0', '1', 'x', 0, 0xff}
	states := 1 + rng.Intn(4)
	m := &Machine{
		Name:    fmt.Sprintf("random-%d", i),
		States:  states,
		Halt:    State(rng.Intn(states + 2)),
		Symbols: alphabet[:2+rng.Intn(3)],
		Delta:   map[TransKey]Trans{},
	}
	randState := func() State { return State(rng.Intn(states+3) - 1) }
	for q := -1; q <= states+1; q++ {
		for _, s := range alphabet {
			if rng.Intn(4) != 0 && (q < 0 || q >= states || rng.Intn(8) == 0) {
				continue // keys outside the ordinary range are rare
			}
			if rng.Intn(10) == 0 {
				continue // a missing transition
			}
			m.Delta[TransKey{State: State(q), Read: s}] = Trans{
				Write: alphabet[rng.Intn(len(alphabet))],
				Move:  Move(rng.Intn(5) - 2),
				Next:  randState(),
			}
		}
	}
	return m
}

func TestRunMatchesStepReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var halted, exhausted, failed int
	for i := 0; i < 3000; i++ {
		m := randomMachine(rng, i)
		budget := rng.Intn(120)
		checkRunMatchesStep(t, m, budget)
		switch res, err := Run(m, budget); {
		case err != nil:
			failed++
		case res.Halted:
			halted++
		default:
			exhausted++
		}
	}
	// The corpus must reach every outcome, or the comparison proves little.
	if halted == 0 || exhausted == 0 || failed == 0 {
		t.Fatalf("outcomes: %d halted, %d out of budget, %d errors", halted, exhausted, failed)
	}
	t.Logf("outcomes: %d halted, %d out of budget, %d errors", halted, exhausted, failed)
}
