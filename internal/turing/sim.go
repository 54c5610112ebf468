package turing

import (
	"fmt"
	"strings"
)

// Config is a machine configuration: tape contents, head position and control
// state. The tape is one-way infinite; unwritten cells read Blank.
type Config struct {
	Tape  []Symbol
	Head  int
	State State
}

// StartConfig returns the initial configuration: blank tape, head on cell 0,
// state 0.
func StartConfig() Config {
	return Config{Tape: nil, Head: 0, State: 0}
}

// Read returns the symbol at tape cell i.
func (c Config) Read(i int) Symbol {
	if i < 0 {
		panic(fmt.Sprintf("turing: read at negative cell %d", i))
	}
	if i >= len(c.Tape) {
		return Blank
	}
	return c.Tape[i]
}

// Step applies one transition of m and returns the successor configuration.
// Stepping a halted configuration or moving off the left tape end is an
// error (library machines never do either on a blank start tape).
func (c Config) Step(m *Machine) (Config, error) {
	if m.IsHalt(c.State) {
		return Config{}, fmt.Errorf("turing: step on halted configuration")
	}
	tr, ok := m.Delta[TransKey{State: c.State, Read: c.Read(c.Head)}]
	if !ok {
		return Config{}, fmt.Errorf("turing: missing transition delta(%d, %q)", c.State, c.Read(c.Head))
	}
	tape := append([]Symbol(nil), c.Tape...)
	for len(tape) <= c.Head {
		tape = append(tape, Blank)
	}
	tape[c.Head] = tr.Write
	head := c.Head + int(tr.Move)
	if head < 0 {
		return Config{}, fmt.Errorf("turing: head moved off the left tape end")
	}
	return Config{Tape: tape, Head: head, State: tr.Next}, nil
}

// Result summarises a bounded simulation.
type Result struct {
	Halted bool
	Steps  int    // number of transitions taken before halting (the runtime s)
	Output Symbol // symbol under the head in the halting configuration
	Final  Config
}

// Run simulates m from the blank start configuration for at most maxSteps
// transitions. If the machine halts within the budget, Result.Halted is true
// and Steps is its exact runtime.
//
// Unlike Config.Step (which copies the tape and suits table construction),
// Run mutates a single tape buffer in place: identifier-scaled simulation
// budgets (the Section 3 deciders simulate for Id(v) steps) make the
// quadratic copy-per-step cost prohibitive. For the same reason a run that
// outlasts len(Delta) steps switches from looking Delta up to a dense
// transition table (see transTable). Building the table costs about as much
// as the steps already taken, so long runs gain and short runs, which never
// reach the switch, pay nothing for it.
func Run(m *Machine, maxSteps int) (Result, error) {
	s := simulation{m: m}
	s.advance(maxSteps)
	res, err := s.result(maxSteps)
	if err == nil {
		res.Final = Config{Tape: s.tape, Head: s.head, State: s.state}
	}
	return res, err
}

// simulation is a run of m from the blank start configuration, paused after
// steps transitions. It ends in one of three ways, each at a fixed step
// whatever the budget: m halts (state is m.Halt), a transition is missing,
// or the head moves off the left tape end (err is set, and steps is the
// step that failed). Until then it can be advanced to any larger budget,
// and it continues from where it stopped, dense table included.
type simulation struct {
	m     *Machine
	tape  []Symbol
	head  int
	state State
	steps int
	table *transTable
	err   error
}

// advance continues the run until it halts, fails or has taken maxSteps
// transitions. The configuration stays in locals while it steps and is
// written back once; a failure breaks out of the loop with the step that
// failed, and its error is built after it.
func (s *simulation) advance(maxSteps int) {
	if s.err != nil {
		return
	}
	m, tape, head, state, table, step := s.m, s.tape, s.head, s.state, s.table, s.steps
	missing := false
	for ; step < maxSteps && !m.IsHalt(state); step++ {
		sym := Blank
		if head < len(tape) {
			sym = tape[head]
		}
		var tr Trans
		var ok bool
		if table != nil {
			tr, ok = table.lookup(m, state, sym)
		} else {
			tr, ok = m.Delta[TransKey{State: state, Read: sym}]
			if step+1 == len(m.Delta) {
				table = newTransTable(m)
			}
		}
		if !ok {
			missing = true
			break
		}
		for len(tape) <= head {
			tape = append(tape, Blank)
		}
		tape[head] = tr.Write
		head += int(tr.Move)
		if head < 0 {
			break
		}
		state = tr.Next
	}
	s.tape, s.head, s.state, s.table, s.steps = tape, head, state, table, step
	switch {
	case missing:
		s.err = fmt.Errorf("turing: %q step %d: missing transition delta(%d, %q)", m.Name, step, state, s.read())
	case head < 0:
		s.err = fmt.Errorf("turing: %q step %d: head moved off the left tape end", m.Name, step)
	}
}

// read returns the symbol under the head.
func (s *simulation) read() Symbol {
	if s.head < len(s.tape) {
		return s.tape[s.head]
	}
	return Blank
}

// covers reports whether the run has gone far enough to answer budget
// maxSteps: it has ended, or it has taken at least maxSteps transitions.
func (s *simulation) covers(maxSteps int) bool {
	return maxSteps <= s.steps || s.err != nil || s.m.IsHalt(s.state)
}

// result is Run's answer for budget maxSteps, which the run must cover,
// without Final.
func (s *simulation) result(maxSteps int) (Result, error) {
	switch {
	case s.err != nil && maxSteps > s.steps:
		return Result{}, s.err
	case s.m.IsHalt(s.state) && maxSteps >= s.steps:
		return Result{Halted: true, Steps: s.steps, Output: s.read()}, nil
	}
	return Result{}, nil
}

// transTable is Delta laid out densely, built from Delta's own keys: one
// cell per (state, symbol) pair with the state in 0..rows-1 and the symbol
// read by some key, so a step costs two slice indexings instead of a map
// lookup. Rows stop at ceil(len(Delta)/cols), which covers every state of a
// valid machine and keeps the grid under len(Delta)+cols cells whatever the
// keys' states are. Keys outside the grid, which only invalid machines have,
// are looked up in Delta every time.
type transTable struct {
	col   [256]uint16 // symbol -> 1 + column; 0 when no key reads the symbol
	cols  int
	rows  int
	cells []transCell
}

// transCell is one (state, symbol) entry; ok reports whether Delta has it.
type transCell struct {
	next  State
	write Symbol
	move  Move
	ok    bool
}

func newTransTable(m *Machine) *transTable {
	t := &transTable{}
	// top is one past the largest key state below len(Delta); the grid never
	// has more rows than that.
	var top State
	for k := range m.Delta {
		if t.col[k.Read] == 0 {
			t.cols++
			t.col[k.Read] = uint16(t.cols)
		}
		if k.State >= top && k.State < State(len(m.Delta)) {
			top = k.State + 1
		}
	}
	if t.cols > 0 {
		t.rows = (len(m.Delta) + t.cols - 1) / t.cols
		if top < State(t.rows) {
			t.rows = int(top)
		}
	}
	t.cells = make([]transCell, t.rows*t.cols)
	for k, tr := range m.Delta {
		if k.State >= 0 && k.State < State(t.rows) {
			t.cells[int(k.State)*t.cols+int(t.col[k.Read])-1] = transCell{
				next: tr.Next, write: tr.Write, move: tr.Move, ok: true,
			}
		}
	}
	return t
}

// lookup returns m.Delta[(q, sym)].
func (t *transTable) lookup(m *Machine, q State, sym Symbol) (Trans, bool) {
	c := t.col[sym]
	if c == 0 {
		return Trans{}, false // no key reads sym
	}
	if q < 0 || q >= State(t.rows) {
		tr, ok := m.Delta[TransKey{State: q, Read: sym}]
		return tr, ok
	}
	e := &t.cells[int(q)*t.cols+int(c)-1]
	return Trans{Write: e.write, Move: e.move, Next: e.next}, e.ok
}

// Runtime returns the exact runtime of m if it halts within maxSteps, or
// (0, false).
func Runtime(m *Machine, maxSteps int) (int, bool) {
	res, err := Run(m, maxSteps)
	if err != nil || !res.Halted {
		return 0, false
	}
	return res.Steps, true
}

// Outputs0 reports whether m halts within maxSteps with output '0'
// (membership in L0, decided with a runtime budget). The second return is
// false when the machine did not halt within the budget.
func Outputs0(m *Machine, maxSteps int) (bool, bool) {
	res, err := Run(m, maxSteps)
	if err != nil || !res.Halted {
		return false, false
	}
	return res.Output == '0', true
}

// Trace returns the first rows configurations of the (possibly infinite)
// run of m: configurations before steps 1..rows. It never needs m to halt.
// If m halts before producing the requested rows, the trace ends at the
// halting configuration.
func Trace(m *Machine, rows int) ([]Config, error) {
	if rows < 1 {
		return nil, fmt.Errorf("turing: trace needs rows >= 1")
	}
	out := make([]Config, 0, rows)
	c := StartConfig()
	out = append(out, c)
	for len(out) < rows && !m.IsHalt(c.State) {
		next, err := c.Step(m)
		if err != nil {
			return nil, fmt.Errorf("turing: %q trace row %d: %w", m.Name, len(out), err)
		}
		c = next
		out = append(out, c)
	}
	return out, nil
}

// FormatConfig renders a configuration for CLI display, marking the head.
func FormatConfig(m *Machine, c Config, width int) string {
	var b strings.Builder
	for i := 0; i < width; i++ {
		if i == c.Head {
			if m.IsHalt(c.State) {
				fmt.Fprintf(&b, "[%c:HALT]", c.Read(i))
			} else {
				fmt.Fprintf(&b, "[%c:q%d]", c.Read(i), c.State)
			}
		} else {
			fmt.Fprintf(&b, " %c ", c.Read(i))
		}
	}
	return b.String()
}
